//! Per-chain pipeline selection.
//!
//! Every operator runs on the default engine — the columnar kernels
//! and fused morsel pipelines — and falls back to the serial row engine
//! only when a kernel declines. The one planning decision left is
//! whether a chain of fusible operators is worth fusing; it is a pure
//! function of the chain's shape, so unit tests pin it hostlessly. The
//! executor counts every decision (`plan.choice.{serial,columnar,
//! pipeline}`) so benches and deployments see what actually ran.

/// Whether to fuse an operator chain into a single-pass pipeline or
/// materialize between operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineChoice {
    /// Push morsels through the whole chain in one sweep.
    Fuse,
    /// Run operator-at-a-time (each node materializes a `Table`).
    Materialize,
}

/// Pipeline-vs-materialize for a chain of `fused_ops` fusible operators
/// (Filter/Project stages plus a terminal Aggregate/Limit sink).
///
/// Fusion's win is the intermediate `Table`s it skips — there are
/// `fused_ops - 1` of them. A single operator has nothing to skip, and
/// the operator-at-a-time engine has per-operator fast paths (keep-all
/// storage sharing, dense-code group-by) that a one-stage pipeline
/// would merely re-implement, so chains shorter than two materialize.
/// Row counts deliberately play no part: the decision must be knowable
/// before the source executes, and per-chunk fusion overhead is
/// amortized by the same morsel that pays it.
pub fn pipeline_choice(fused_ops: usize) -> PipelineChoice {
    if fused_ops >= 2 {
        PipelineChoice::Fuse
    } else {
        PipelineChoice::Materialize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelines_fuse_only_real_chains() {
        assert_eq!(pipeline_choice(0), PipelineChoice::Materialize);
        // A lone operator has no intermediate to skip.
        assert_eq!(pipeline_choice(1), PipelineChoice::Materialize);
        // Filter→Aggregate and deeper: fuse.
        assert_eq!(pipeline_choice(2), PipelineChoice::Fuse);
        assert_eq!(pipeline_choice(5), PipelineChoice::Fuse);
    }
}
