//! The correctness gate: every job (or stream pass) must return `k`
//! centers with a finite cost, repeat its bytes, cost ratio and centers
//! bit for bit, and, on the default seed, equal the pinned outputs.

/// Seed whose outputs are pinned below. Other seeds are checked for
/// repeatability only.
pub const DEFAULT_SEED: u64 = 1;

/// What one job (or one whole stream pass) produced, reduced to what the
/// gate compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    /// Centers returned (the final sync's, for a stream).
    pub centers: usize,
    /// The returned cost (must be finite).
    pub cost: f64,
    /// Bytes on the wire, both directions.
    pub bytes: u64,
    /// Cost on the full data divided by the set-up reference.
    pub cost_ratio: f64,
    /// FNV-1a hash of the centers' coordinate bits, in order.
    pub centers_hash: u64,
    /// Syncs run (0 for batch jobs).
    pub syncs: u64,
}

/// Outputs pinned for [`DEFAULT_SEED`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pin {
    /// Expected bytes on the wire.
    pub bytes: u64,
    /// Expected `cost_ratio`, as `f64::to_bits`.
    pub cost_ratio_bits: u64,
    /// Expected centers hash.
    pub centers_hash: u64,
}

/// What the gate requires of a workload's outcomes.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    /// Centers every job must return.
    pub k: usize,
    /// Syncs every stream pass must run, counting the final flush sync.
    pub syncs: u64,
    /// Pinned outputs, present only on the default seed.
    pub pin: Option<Pin>,
}

impl Expect {
    /// The expectation for `seed`: pins apply only to [`DEFAULT_SEED`].
    pub fn new(k: usize, syncs: u64, pin: Pin, seed: u64) -> Self {
        Self {
            k,
            syncs,
            pin: (seed == DEFAULT_SEED).then_some(pin),
        }
    }
}

/// FNV-1a over the bit patterns of every coordinate of every center.
pub fn centers_hash<'a>(centers: impl IntoIterator<Item = &'a [f64]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in centers {
        for x in row {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Checks `got` against the expectation and against the run's first
/// outcome (`first`, `None` for the first one). Returns every problem
/// found; empty means the outcome passes.
pub fn check(got: &Outcome, first: Option<&Outcome>, expect: &Expect) -> Vec<String> {
    let mut problems = Vec::new();
    if got.centers != expect.k {
        problems.push(format!("{} centers, expected {}", got.centers, expect.k));
    }
    if !got.cost.is_finite() || !got.cost_ratio.is_finite() {
        problems.push(format!(
            "non-finite cost {} (ratio {})",
            got.cost, got.cost_ratio
        ));
    }
    if got.syncs != expect.syncs {
        problems.push(format!("{} syncs, expected {}", got.syncs, expect.syncs));
    }
    if let Some(first) = first {
        if (got.bytes, got.cost_ratio.to_bits(), got.centers_hash)
            != (first.bytes, first.cost_ratio.to_bits(), first.centers_hash)
        {
            problems.push(format!(
                "not repeatable: bytes {} vs {}, cost_ratio {} vs {}, centers {:016x} vs {:016x}",
                got.bytes,
                first.bytes,
                got.cost_ratio,
                first.cost_ratio,
                got.centers_hash,
                first.centers_hash
            ));
        }
    }
    if let Some(pin) = expect.pin {
        let found = Pin {
            bytes: got.bytes,
            cost_ratio_bits: got.cost_ratio.to_bits(),
            centers_hash: got.centers_hash,
        };
        if found != pin {
            problems.push(format!(
                "differs from the pinned outputs: got bytes {}, cost_ratio bits {:#018x}, \
                 centers {:#018x}; pinned bytes {}, cost_ratio bits {:#018x}, centers {:#018x}",
                found.bytes,
                found.cost_ratio_bits,
                found.centers_hash,
                pin.bytes,
                pin.cost_ratio_bits,
                pin.centers_hash
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            centers: 3,
            cost: 10.0,
            bytes: 1234,
            cost_ratio: 1.25,
            centers_hash: centers_hash([&[1.0, 2.0][..], &[3.0, 4.0][..]]),
            syncs: 7,
        }
    }

    fn pin_of(o: &Outcome) -> Pin {
        Pin {
            bytes: o.bytes,
            cost_ratio_bits: o.cost_ratio.to_bits(),
            centers_hash: o.centers_hash,
        }
    }

    #[test]
    fn a_matching_outcome_passes() {
        let o = outcome();
        let expect = Expect::new(3, 7, pin_of(&o), DEFAULT_SEED);
        assert!(check(&o, None, &expect).is_empty());
        assert!(check(&o, Some(&o), &expect).is_empty());
    }

    #[test]
    fn a_corrupted_pin_fails_the_gate() {
        let o = outcome();
        let good = pin_of(&o);
        let corrupted = [
            Pin {
                bytes: good.bytes + 1,
                ..good
            },
            Pin {
                cost_ratio_bits: good.cost_ratio_bits ^ 1,
                ..good
            },
            Pin {
                centers_hash: good.centers_hash ^ 1,
                ..good
            },
        ];
        for pin in corrupted {
            let problems = check(&o, None, &Expect::new(3, 7, pin, DEFAULT_SEED));
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(problems[0].contains("pinned"));
        }
    }

    #[test]
    fn pins_apply_only_to_the_default_seed() {
        let o = outcome();
        let wrong = Pin {
            bytes: 1,
            ..pin_of(&o)
        };
        assert!(check(&o, None, &Expect::new(3, 7, wrong, DEFAULT_SEED + 1)).is_empty());
    }

    #[test]
    fn wrong_center_count_cost_syncs_or_repeat_fail() {
        let o = outcome();
        let expect = Expect::new(3, 7, pin_of(&o), DEFAULT_SEED + 1);
        let cases = [
            Outcome { centers: 2, ..o },
            Outcome {
                cost: f64::NAN,
                ..o
            },
            Outcome { syncs: 6, ..o },
        ];
        for bad in cases {
            assert_eq!(check(&bad, None, &expect).len(), 1, "{bad:?}");
        }
        let drifted = Outcome {
            centers_hash: o.centers_hash ^ 2,
            ..o
        };
        assert_eq!(check(&drifted, Some(&o), &expect).len(), 1);
    }

    #[test]
    fn centers_hash_sees_every_bit_and_the_order() {
        let a = centers_hash([&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let b = centers_hash([&[3.0, 4.0][..], &[1.0, 2.0][..]]);
        let c = centers_hash([
            &[1.0, 2.0][..],
            &[3.0, f64::from_bits(4.0f64.to_bits() ^ 1)][..],
        ]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
