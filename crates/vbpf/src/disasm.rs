//! Disassembler: renders vbpf programs in the classic BPF text form used
//! by `bpftool` / `llvm-objdump`, for debugging classifiers and for the
//! `custom_classifier` example's output.

use crate::isa::*;

fn alu_name(op: u8) -> &'static str {
    match op & 0xF0 {
        ALU_ADD => "add",
        ALU_SUB => "sub",
        ALU_MUL => "mul",
        ALU_DIV => "div",
        ALU_OR => "or",
        ALU_AND => "and",
        ALU_LSH => "lsh",
        ALU_RSH => "rsh",
        ALU_NEG => "neg",
        ALU_MOD => "mod",
        ALU_XOR => "xor",
        ALU_MOV => "mov",
        ALU_ARSH => "arsh",
        _ => "alu?",
    }
}

fn jmp_name(op: u8) -> &'static str {
    match op & 0xF0 {
        JMP_JA => "ja",
        JMP_JEQ => "jeq",
        JMP_JGT => "jgt",
        JMP_JGE => "jge",
        JMP_JSET => "jset",
        JMP_JNE => "jne",
        JMP_JSGT => "jsgt",
        JMP_JSGE => "jsge",
        JMP_JLT => "jlt",
        JMP_JLE => "jle",
        JMP_JSLT => "jslt",
        JMP_JSLE => "jsle",
        _ => "jmp?",
    }
}

fn size_suffix(op: u8) -> &'static str {
    match op & 0x18 {
        SIZE_B => "b",
        SIZE_H => "h",
        SIZE_W => "w",
        _ => "dw",
    }
}

/// Renders one instruction at `pc` (used for jump target arithmetic).
pub fn disasm_insn(insn: &Insn, pc: usize) -> String {
    let class = insn.class();
    match class {
        CLASS_ALU | CLASS_ALU64 => {
            let w = if class == CLASS_ALU64 { "64" } else { "32" };
            let name = alu_name(insn.op);
            if insn.op & 0xF0 == ALU_NEG {
                return format!("{name}{w} r{}", insn.dst);
            }
            if insn.op & 0x08 == SRC_X {
                format!("{name}{w} r{}, r{}", insn.dst, insn.src)
            } else {
                format!("{name}{w} r{}, {}", insn.dst, insn.imm)
            }
        }
        CLASS_LD => {
            if insn.is_lddw() {
                format!("lddw r{}, {:#x}", insn.dst, insn.imm as u64)
            } else {
                format!("ld? (op={:#04x})", insn.op)
            }
        }
        CLASS_LDX => format!(
            "ldx{} r{}, [r{}{:+}]",
            size_suffix(insn.op),
            insn.dst,
            insn.src,
            insn.off
        ),
        CLASS_ST => format!(
            "st{} [r{}{:+}], {}",
            size_suffix(insn.op),
            insn.dst,
            insn.off,
            insn.imm
        ),
        CLASS_STX => format!(
            "stx{} [r{}{:+}], r{}",
            size_suffix(insn.op),
            insn.dst,
            insn.off,
            insn.src
        ),
        CLASS_JMP => {
            let jop = insn.op & 0xF0;
            match jop {
                JMP_EXIT => "exit".to_string(),
                JMP_CALL => format!("call {}", insn.imm),
                JMP_JA => format!("ja +{} -> {}", insn.off, pc as i64 + 1 + insn.off as i64),
                _ => {
                    let target = pc as i64 + 1 + insn.off as i64;
                    if insn.op & 0x08 == SRC_X {
                        format!(
                            "{} r{}, r{}, -> {}",
                            jmp_name(insn.op),
                            insn.dst,
                            insn.src,
                            target
                        )
                    } else {
                        format!(
                            "{} r{}, {}, -> {}",
                            jmp_name(insn.op),
                            insn.dst,
                            insn.imm,
                            target
                        )
                    }
                }
            }
        }
        _ => format!("?? (op={:#04x})", insn.op),
    }
}

/// Renders a whole program, one numbered instruction per line.
pub fn disasm(insns: &[Insn]) -> String {
    insns
        .iter()
        .enumerate()
        .map(|(pc, i)| format!("{pc:4}: {}", disasm_insn(i, pc)))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn renders_common_forms() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.mov64_imm(R0, 7)
            .lddw(R2, 0xDEAD_BEEF)
            .ldx(SIZE_W, R3, R1, 8)
            .stx(SIZE_DW, R10, -8, R3)
            .jmp_imm(JMP_JEQ, R0, 7, l)
            .call(3);
        b.bind(l);
        b.exit();
        let (insns, _) = b.build();
        let text = disasm(&insns);
        assert!(text.contains("mov64 r0, 7"));
        assert!(text.contains("lddw r2, 0xdeadbeef"));
        assert!(text.contains("ldxw r3, [r1+8]"));
        assert!(text.contains("stxdw [r10-8], r3"));
        assert!(text.contains("jeq r0, 7, -> 6"));
        assert!(text.contains("call 3"));
        assert!(text.contains("exit"));
    }

    #[test]
    fn every_line_is_numbered() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 0).exit();
        let (insns, _) = b.build();
        let text = disasm(&insns);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].trim_start().starts_with("0:"));
        assert!(lines[1].trim_start().starts_with("1:"));
    }

    #[test]
    fn real_classifier_disassembles_cleanly() {
        // The encryptor classifier from nvmetro-functions round-trips
        // through encode/decode and disassembles without unknown opcodes.
        use crate::isa::Insn;
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.ldx(SIZE_B, R2, R1, 8)
            .jmp_imm(JMP_JNE, R2, 2, l)
            .mov64_imm(R0, 1)
            .exit();
        b.bind(l);
        b.mov64_imm(R0, 0).exit();
        let (insns, _) = b.build();
        let mut bytes = Vec::new();
        for i in &insns {
            i.encode(&mut bytes);
        }
        let decoded = Insn::decode_program(&bytes).unwrap();
        let text = disasm(&decoded);
        assert!(!text.contains("??"), "unknown opcode in:\n{text}");
        assert!(!text.contains("alu?"));
        assert!(!text.contains("jmp?"));
    }

    /// What [`disasm`] renders for the program built in
    /// `full_isa_matches_golden_listing`.
    const GOLDEN: &str = "   0: add64 r3, -7
   1: add64 r3, r4
   2: sub64 r3, -7
   3: sub64 r3, r4
   4: mul64 r3, -7
   5: mul64 r3, r4
   6: div64 r3, -7
   7: div64 r3, r4
   8: or64 r3, -7
   9: or64 r3, r4
  10: and64 r3, -7
  11: and64 r3, r4
  12: lsh64 r3, -7
  13: lsh64 r3, r4
  14: rsh64 r3, -7
  15: rsh64 r3, r4
  16: mod64 r3, -7
  17: mod64 r3, r4
  18: xor64 r3, -7
  19: xor64 r3, r4
  20: mov64 r3, -7
  21: mov64 r3, r4
  22: arsh64 r3, -7
  23: arsh64 r3, r4
  24: neg64 r5
  25: add32 r3, -7
  26: add32 r3, r4
  27: sub32 r3, -7
  28: sub32 r3, r4
  29: mul32 r3, -7
  30: mul32 r3, r4
  31: div32 r3, -7
  32: div32 r3, r4
  33: or32 r3, -7
  34: or32 r3, r4
  35: and32 r3, -7
  36: and32 r3, r4
  37: lsh32 r3, -7
  38: lsh32 r3, r4
  39: rsh32 r3, -7
  40: rsh32 r3, r4
  41: mod32 r3, -7
  42: mod32 r3, r4
  43: xor32 r3, -7
  44: xor32 r3, r4
  45: mov32 r3, -7
  46: mov32 r3, r4
  47: arsh32 r3, -7
  48: arsh32 r3, r4
  49: neg32 r5
  50: lddw r2, 0x1122334455667788
  51: lddw r6, 0xffffffffffffffff
  52: ldxb r2, [r1+8]
  53: stb [r10-16], 99
  54: stxb [r10-24], r2
  55: ldxh r2, [r1+8]
  56: sth [r10-16], 99
  57: stxh [r10-24], r2
  58: ldxw r2, [r1+8]
  59: stw [r10-16], 99
  60: stxw [r10-24], r2
  61: ldxdw r2, [r1+8]
  62: stdw [r10-16], 99
  63: stxdw [r10-24], r2
  64: ja +3 -> 68
  65: jeq r2, -3, -> 71
  66: jeq r2, r3, -> 69
  67: jgt r2, -3, -> 73
  68: jgt r2, r3, -> 71
  69: jge r2, -3, -> 75
  70: jge r2, r3, -> 73
  71: jset r2, -3, -> 77
  72: jset r2, r3, -> 75
  73: jne r2, -3, -> 79
  74: jne r2, r3, -> 77
  75: jsgt r2, -3, -> 81
  76: jsgt r2, r3, -> 79
  77: jsge r2, -3, -> 83
  78: jsge r2, r3, -> 81
  79: jlt r2, -3, -> 85
  80: jlt r2, r3, -> 83
  81: jle r2, -3, -> 87
  82: jle r2, r3, -> 85
  83: jslt r2, -3, -> 89
  84: jslt r2, r3, -> 87
  85: jsle r2, -3, -> 91
  86: jsle r2, r3, -> 89
  87: call 4
  88: exit";

    #[test]
    fn full_isa_matches_golden_listing() {
        // Every instruction form in the ISA: all ALU ops (64/32,
        // imm/reg), lddw, every load/store size, ja, every conditional
        // jump (imm/reg), call, exit, each rendered exactly as listed.
        let alu_ops = [
            ALU_ADD, ALU_SUB, ALU_MUL, ALU_DIV, ALU_OR, ALU_AND, ALU_LSH, ALU_RSH, ALU_MOD,
            ALU_XOR, ALU_MOV, ALU_ARSH,
        ];
        let jmp_ops = [
            JMP_JEQ, JMP_JGT, JMP_JGE, JMP_JSET, JMP_JNE, JMP_JSGT, JMP_JSGE, JMP_JLT, JMP_JLE,
            JMP_JSLT, JMP_JSLE,
        ];
        let mut insns = Vec::new();
        for class in [CLASS_ALU64, CLASS_ALU] {
            for op in alu_ops {
                insns.push(Insn {
                    op: class | SRC_K | op,
                    dst: R3,
                    src: 0,
                    off: 0,
                    imm: -7,
                });
                insns.push(Insn {
                    op: class | SRC_X | op,
                    dst: R3,
                    src: R4,
                    off: 0,
                    imm: 0,
                });
            }
            insns.push(Insn {
                op: class | SRC_K | ALU_NEG,
                dst: R5,
                src: 0,
                off: 0,
                imm: 0,
            });
        }
        insns.push(Insn {
            op: CLASS_LD | MODE_IMM | SIZE_DW,
            dst: R2,
            src: 0,
            off: 0,
            imm: 0x1122_3344_5566_7788u64 as i64,
        });
        insns.push(Insn {
            op: CLASS_LD | MODE_IMM | SIZE_DW,
            dst: R6,
            src: 0,
            off: 0,
            imm: u64::MAX as i64,
        });
        for size in [SIZE_B, SIZE_H, SIZE_W, SIZE_DW] {
            insns.push(Insn {
                op: CLASS_LDX | MODE_MEM | size,
                dst: R2,
                src: R1,
                off: 8,
                imm: 0,
            });
            insns.push(Insn {
                op: CLASS_ST | MODE_MEM | size,
                dst: R10,
                src: 0,
                off: -16,
                imm: 99,
            });
            insns.push(Insn {
                op: CLASS_STX | MODE_MEM | size,
                dst: R10,
                src: R2,
                off: -24,
                imm: 0,
            });
        }
        insns.push(Insn {
            op: CLASS_JMP | JMP_JA,
            dst: 0,
            src: 0,
            off: 3,
            imm: 0,
        });
        for op in jmp_ops {
            insns.push(Insn {
                op: CLASS_JMP | SRC_K | op,
                dst: R2,
                src: 0,
                off: 5,
                imm: -3,
            });
            insns.push(Insn {
                op: CLASS_JMP | SRC_X | op,
                dst: R2,
                src: R3,
                off: 2,
                imm: 0,
            });
        }
        insns.push(Insn {
            op: CLASS_JMP | JMP_CALL,
            dst: 0,
            src: 0,
            off: 0,
            imm: 4,
        });
        insns.push(Insn {
            op: CLASS_JMP | JMP_EXIT,
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        });

        assert_eq!(disasm(&insns), GOLDEN);
    }
}
