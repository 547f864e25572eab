//! Live ingestion: per-object *tail-unit* accumulation (ROADMAP item 2).
//!
//! The paper's sliced representation (Sec 3.2.4) assumes a mapping
//! arrives whole; a live fleet instead streams `(instant, position)`
//! samples. [`TailBuilder`] buffers the open tail of one object's
//! trajectory and, on [`TailBuilder::seal`], converts the buffered
//! samples into canonical `upoint` units with `Mapping::from_samples`
//! itself: every window `[t_i, t_{i+1})` is left-closed right-open, the
//! final window is right-closed, and adjacent units with the same
//! motion function are merged — the ι endpoint cleanup that makes the
//! batch acceptable to `Mapping::try_new` without further
//! normalization.
//!
//! Sealing retains the last sample as the *anchor* of the next batch,
//! so consecutive batches share their boundary instant just like
//! consecutive sample windows do. The storage layer resolves that seam
//! when applying a batch to a stored mapping (trim the previous
//! right-closed endpoint to right-open, or drop a point-interval tail),
//! which makes `seal` batches applied in sequence byte-identical to one
//! `from_samples` call over the full sample list.

use crate::mapping::Mapping;
use crate::upoint::UPoint;
use mob_base::error::{InvariantViolation, Result};
use mob_base::Instant;
use mob_spatial::Point;

/// Accumulates the open tail of one moving object's trajectory.
///
/// ```
/// use mob_core::{Mapping, TailBuilder};
/// use mob_base::t;
/// use mob_spatial::Point;
///
/// let p = |x: f64| Point::new(x.into(), 0.0.into());
/// let mut tail = TailBuilder::new();
/// tail.push(t(0.0), p(0.0)).unwrap();
/// tail.push(t(1.0), p(1.0)).unwrap();
/// let units = tail.seal();
/// // The batch is a valid mapping on its own …
/// assert!(Mapping::try_new(units.clone()).is_ok());
/// // … identical to from_samples over the same samples.
/// let whole = Mapping::from_samples(&[(t(0.0), p(0.0)), (t(1.0), p(1.0))]);
/// assert_eq!(units, whole.units());
/// ```
#[derive(Clone, Debug, Default)]
pub struct TailBuilder {
    /// Last sample of the previous sealed batch (seam with this batch).
    anchor: Option<(Instant, Point)>,
    /// Samples pushed since the last seal.
    samples: Vec<(Instant, Point)>,
}

impl TailBuilder {
    /// New builder with no anchor and no pending samples.
    pub fn new() -> TailBuilder {
        TailBuilder {
            anchor: None,
            samples: Vec::new(),
        }
    }

    /// Record one GPS sample. Instants must strictly increase across
    /// the whole ingestion stream — including across seals (the anchor
    /// counts).
    pub fn push(&mut self, t: Instant, p: Point) -> Result<()> {
        let last = self
            .samples
            .last()
            .map(|&(lt, _)| lt)
            .or(self.anchor.map(|(lt, _)| lt));
        if let Some(lt) = last {
            if t <= lt {
                return Err(InvariantViolation::new(
                    "ingest: sample instants must strictly increase",
                ));
            }
        }
        self.samples.push((t, p));
        Ok(())
    }

    /// Number of samples buffered since the last seal.
    pub fn pending(&self) -> usize {
        self.samples.len()
    }

    /// `true` if a seal would produce no units.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The seam sample carried over from the previous sealed batch.
    pub fn anchor(&self) -> Option<(Instant, Point)> {
        self.anchor
    }

    /// Convert the buffered samples into canonical units (ι cleanup
    /// applied) and retain the last sample as the next batch's anchor.
    ///
    /// The batch is `Mapping::from_samples` over `anchor?` followed by
    /// the pending samples: zero samples → empty batch (anchor
    /// untouched); a single sample and no anchor → one point-interval
    /// unit; otherwise one unit per consecutive window, each
    /// `[t_i, t_{i+1})`, the last `[.., t_n]`, with adjacent
    /// same-motion units merged. [`TailBuilder::push`] keeps the
    /// instants strictly increasing, as `from_samples` requires.
    pub fn seal(&mut self) -> Vec<UPoint> {
        if self.samples.is_empty() {
            return Vec::new();
        }
        let mut combined: Vec<(Instant, Point)> = Vec::with_capacity(self.samples.len() + 1);
        combined.extend(self.anchor);
        combined.append(&mut self.samples);
        self.anchor = combined.last().copied();
        Mapping::from_samples(&combined).into_units()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::Unit;
    use mob_base::t;

    fn pt(x: f64, y: f64) -> Point {
        Point::new(x.into(), y.into())
    }

    #[test]
    fn single_seal_matches_from_samples() {
        let samples = [
            (t(0.0), pt(0.0, 0.0)),
            (t(1.0), pt(1.0, 0.0)),
            (t(2.0), pt(1.0, 1.0)),
            (t(3.0), pt(0.0, 1.0)),
        ];
        let mut tail = TailBuilder::new();
        for &(ti, pi) in &samples {
            tail.push(ti, pi).unwrap();
        }
        let units = tail.seal();
        assert_eq!(units, Mapping::from_samples(&samples).units());
        assert!(Mapping::try_new(units).is_ok());
        assert_eq!(tail.anchor(), Some(samples[3]));
        assert!(tail.is_empty());
    }

    #[test]
    fn collinear_windows_merge_like_builder() {
        // Constant velocity across three samples: from_samples merges the
        // two windows into one unit; seal must do the same (ι cleanup).
        let samples = [
            (t(0.0), pt(0.0, 0.0)),
            (t(1.0), pt(1.0, 0.0)),
            (t(2.0), pt(2.0, 0.0)),
        ];
        let mut tail = TailBuilder::new();
        for &(ti, pi) in &samples {
            tail.push(ti, pi).unwrap();
        }
        let units = tail.seal();
        assert_eq!(units, Mapping::from_samples(&samples).units());
        assert_eq!(units.len(), Mapping::from_samples(&samples).num_units());
    }

    #[test]
    fn single_sample_seals_to_point_unit() {
        let mut tail = TailBuilder::new();
        tail.push(t(5.0), pt(2.0, 3.0)).unwrap();
        let units = tail.seal();
        assert_eq!(
            units,
            Mapping::from_samples(&[(t(5.0), pt(2.0, 3.0))]).units()
        );
        assert_eq!(tail.anchor(), Some((t(5.0), pt(2.0, 3.0))));
    }

    #[test]
    fn empty_seal_is_noop() {
        let mut tail = TailBuilder::new();
        assert!(tail.seal().is_empty());
        tail.push(t(0.0), pt(0.0, 0.0)).unwrap();
        tail.seal();
        // Second seal with no new samples: no units, anchor kept.
        assert!(tail.seal().is_empty());
        assert_eq!(tail.anchor(), Some((t(0.0), pt(0.0, 0.0))));
    }

    #[test]
    fn push_rejects_non_increasing_instants() {
        let mut tail = TailBuilder::new();
        tail.push(t(1.0), pt(0.0, 0.0)).unwrap();
        assert!(tail.push(t(1.0), pt(1.0, 0.0)).is_err());
        assert!(tail.push(t(0.5), pt(1.0, 0.0)).is_err());
        // The anchor also guards the seam after a seal.
        tail.seal();
        assert!(tail.push(t(1.0), pt(2.0, 0.0)).is_err());
        assert!(tail.push(t(2.0), pt(2.0, 0.0)).is_ok());
    }

    #[test]
    fn second_batch_starts_left_closed_at_anchor() {
        let mut tail = TailBuilder::new();
        tail.push(t(0.0), pt(0.0, 0.0)).unwrap();
        tail.push(t(1.0), pt(1.0, 0.0)).unwrap();
        tail.seal();
        tail.push(t(2.0), pt(1.0, 1.0)).unwrap();
        let batch = tail.seal();
        assert_eq!(batch.len(), 1);
        let iv = batch[0].interval();
        assert_eq!(*iv.start(), t(1.0));
        assert_eq!(*iv.end(), t(2.0));
        assert!(iv.left_closed() && iv.right_closed());
    }
}
