//! Medians, quartiles and percentiles over the benchmark's own samples.

/// Sample count, median and quartiles of one timing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method), so the spread printed here is the one the
/// acceptance procedure measures.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    match v.len() {
        0 => Summary::default(),
        1 => Summary {
            n: 1,
            median: v[0],
            q1: v[0],
            q3: v[0],
        },
        len => {
            let cut = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Summary {
                n: len,
                median: cut(2),
                q1: cut(1),
                q3: cut(3),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = summarize(&[3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
    }
}
