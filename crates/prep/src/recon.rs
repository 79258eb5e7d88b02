//! Witness reconstruction: mapping executions of the simplified circuit back
//! to executions of the original circuit.

use plic3_aig::Aig;

/// Where an *original* input or latch gets its value from when a witness found
/// on the simplified circuit is replayed on the original one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SignalSource {
    /// The signal survived preprocessing: read position `index` of the
    /// simplified circuit's input frame / latch state, negated if `negated`.
    Kept {
        /// Input or latch index in the *simplified* circuit.
        index: usize,
        /// `true` if the original signal is the complement of the kept one.
        negated: bool,
    },
    /// Preprocessing proved the signal constant in every execution (a stuck-at
    /// latch, or a signal folded to a constant).
    Constant(bool),
    /// The signal was dropped as irrelevant (outside the cone of influence).
    /// Any value is sound; replay uses the latch's reset value (inputs default
    /// to `false`).
    Free,
    /// The latch was dropped as irrelevant together with its signed
    /// equivalence class: in every reachable state it equals original latch
    /// `latch`, complemented if `negated`, and that latch is
    /// [`SignalSource::Free`]. Replay uses the latch's reset value, which
    /// agrees with `latch`'s. Inputs never have this source.
    Equivalent {
        /// Index of the class's representative in the *original* circuit.
        latch: usize,
        /// `true` if this latch is the complement of the representative.
        negated: bool,
    },
}

/// The invertible witness map recorded by a preprocessing pipeline.
///
/// A `Reconstruction` describes, for every input and latch of the *original*
/// circuit, how to obtain its value from an execution of the *simplified*
/// circuit ([`SignalSource`]). This is the contract that makes preprocessing
/// sound end to end:
///
/// * a counterexample trace found on the simplified circuit maps — via
///   [`Reconstruction::map_input_frame`] and
///   [`Reconstruction::map_initial_state`] — to an execution of the original
///   circuit that violates the same property, and
/// * an inductive invariant of the simplified circuit certifies the original
///   property because every pass preserves the property's value step for step
///   (see `docs/PREPROCESSING.md` for the per-pass argument).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reconstruction {
    inputs: Vec<SignalSource>,
    latches: Vec<SignalSource>,
    /// Input/latch counts of the *simplified* circuit, kept so witness mapping
    /// can reject mismatched circuits instead of silently producing a wrong
    /// map.
    simplified_inputs: usize,
    simplified_latches: usize,
}

impl Reconstruction {
    /// Creates a reconstruction from explicit per-signal sources and the
    /// simplified circuit's input/latch counts.
    pub(crate) fn new(
        inputs: Vec<SignalSource>,
        latches: Vec<SignalSource>,
        simplified_inputs: usize,
        simplified_latches: usize,
    ) -> Self {
        debug_assert!(inputs.iter().all(|s| match s {
            SignalSource::Kept { index, .. } => *index < simplified_inputs,
            _ => true,
        }));
        debug_assert!(latches.iter().all(|s| match s {
            SignalSource::Kept { index, .. } => *index < simplified_latches,
            _ => true,
        }));
        Reconstruction {
            inputs,
            latches,
            simplified_inputs,
            simplified_latches,
        }
    }

    /// The identity map for a circuit with the given input/latch counts (the
    /// reconstruction of a pipeline that changed nothing).
    pub fn identity(num_inputs: usize, num_latches: usize) -> Self {
        let kept = |index: usize| SignalSource::Kept {
            index,
            negated: false,
        };
        Reconstruction {
            inputs: (0..num_inputs).map(kept).collect(),
            latches: (0..num_latches).map(kept).collect(),
            simplified_inputs: num_inputs,
            simplified_latches: num_latches,
        }
    }

    /// Number of inputs of the original circuit.
    pub fn num_original_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of latches of the original circuit.
    pub fn num_original_latches(&self) -> usize {
        self.latches.len()
    }

    /// The source of the `i`-th original input.
    pub fn input_source(&self, i: usize) -> SignalSource {
        self.inputs[i]
    }

    /// The source of the `i`-th original latch.
    pub fn latch_source(&self, i: usize) -> SignalSource {
        self.latches[i]
    }

    /// Maps one input frame of the simplified circuit to an input frame of the
    /// original circuit. Dropped inputs default to `false`.
    ///
    /// # Panics
    ///
    /// Panics if the frame's width differs from the simplified circuit's
    /// input count.
    pub fn map_input_frame(&self, simplified: &[bool]) -> Vec<bool> {
        assert_eq!(
            simplified.len(),
            self.simplified_inputs,
            "input frame width does not match the simplified circuit"
        );
        self.inputs
            .iter()
            .map(|&source| match source {
                SignalSource::Kept { index, negated } => simplified[index] != negated,
                SignalSource::Constant(c) => c,
                SignalSource::Free | SignalSource::Equivalent { .. } => false,
            })
            .collect()
    }

    /// Maps a latch valuation of the simplified circuit to a latch valuation of
    /// the original circuit. Dropped latches take their reset value from
    /// `original` (uninitialized latches default to `false`), so the result is
    /// a legitimate initial state whenever `simplified` is one.
    ///
    /// # Panics
    ///
    /// Panics if `original`'s latch count differs from the reconstruction's,
    /// or if `simplified`'s width differs from the simplified circuit's latch
    /// count.
    pub fn map_initial_state(&self, simplified: &[bool], original: &Aig) -> Vec<bool> {
        assert_eq!(
            original.num_latches(),
            self.latches.len(),
            "reconstruction was recorded for a different circuit"
        );
        assert_eq!(
            simplified.len(),
            self.simplified_latches,
            "latch valuation width does not match the simplified circuit"
        );
        original
            .latches()
            .iter()
            .zip(&self.latches)
            .map(|(latch, &source)| match source {
                SignalSource::Kept { index, negated } => simplified[index] != negated,
                SignalSource::Constant(c) => c,
                SignalSource::Free | SignalSource::Equivalent { .. } => latch.init.unwrap_or(false),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::AigBuilder;

    #[test]
    fn identity_maps_values_through_unchanged() {
        let r = Reconstruction::identity(2, 3);
        assert_eq!(r.num_original_inputs(), 2);
        assert_eq!(r.num_original_latches(), 3);
        assert_eq!(r.map_input_frame(&[true, false]), vec![true, false]);
        let mut b = AigBuilder::new();
        let l = b.latches(3, Some(false));
        for &x in &l {
            b.set_latch_next(x, x);
        }
        let aig = b.build();
        assert_eq!(
            r.map_initial_state(&[true, false, true], &aig),
            vec![true, false, true]
        );
    }

    #[test]
    fn constants_and_free_signals_resolve_locally() {
        let r = Reconstruction::new(
            vec![SignalSource::Free],
            vec![
                SignalSource::Constant(true),
                SignalSource::Kept {
                    index: 0,
                    negated: true,
                },
                SignalSource::Free,
            ],
            0,
            1,
        );
        assert_eq!(r.map_input_frame(&[]), vec![false]);
        let mut b = AigBuilder::new();
        let l0 = b.latch(Some(true));
        let l1 = b.latch(Some(false));
        let l2 = b.latch(Some(true));
        for x in [l0, l1, l2] {
            b.set_latch_next(x, x);
        }
        let aig = b.build();
        // Simplified circuit has one latch, currently 0 → original latch 1 is
        // its negation (1), latch 0 is the constant, latch 2 falls back to its
        // reset value.
        assert_eq!(r.map_initial_state(&[false], &aig), vec![true, true, true]);
    }
}
