//! Rule `noise-discipline`: noise is drawn only through sanctioned APIs.
//!
//! Differential-privacy guarantees live and die on *where* noise comes from.
//! Two invariants:
//!
//! 1. `DoubleGeometric` (the two-sided geometric sampler) is constructed
//!    only inside `hcc-noise`. Everything else consumes noise through the
//!    estimator APIs, so budget accounting and the α→1 rejection guard can
//!    never be bypassed.
//! 2. On the release path (`hcc-engine`, `hcc-consistency`,
//!    `hcc-estimators`), seeding an RNG with `seed_from_u64` is only allowed
//!    in a file that also uses the `node_seeds` derivation — the per-node
//!    stream splitter that makes releases independent of worker count. A
//!    seed minted any other way silently breaks bit-reproducibility.

use crate::rules::Finding;
use crate::syntax::SourceFile;

/// The one crate that may construct `DoubleGeometric`.
pub const NOISE_CRATE: &str = "crates/hcc-noise/src/";

/// Crates whose non-test code may only seed via `node_seeds`.
pub const SEED_SCOPED: [&str; 3] = [
    "crates/hcc-engine/src/",
    "crates/hcc-consistency/src/",
    "crates/hcc-estimators/src/",
];

/// Run the rule over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    // (1) DoubleGeometric construction outside hcc-noise. Mentioning the
    // type is only dangerous where it can be *built*, i.e. in code; doc
    // comments and strings never reach here.
    if !file.rel.starts_with(NOISE_CRATE) {
        for (_, tok) in file.code() {
            if tok.is_ident("DoubleGeometric") {
                out.push(Finding {
                    rule: "noise-discipline",
                    path: file.rel.clone(),
                    line: tok.line,
                    message: "`DoubleGeometric` may only be constructed inside hcc-noise; \
                              draw noise through the estimator APIs"
                        .to_string(),
                });
            }
        }
    }
    // (2) seed_from_u64 on the release path requires node_seeds in the file.
    if SEED_SCOPED.iter().any(|p| file.rel.starts_with(p)) {
        let derives_node_seeds = file.code().any(|(_, t)| t.is_ident("node_seeds"));
        if !derives_node_seeds {
            for (_, tok) in file.code() {
                if tok.is_ident("seed_from_u64") {
                    out.push(Finding {
                        rule: "noise-discipline",
                        path: file.rel.clone(),
                        line: tok.line,
                        message: "`seed_from_u64` on the release path outside the \
                                  `node_seeds` derivation; per-node streams are the only \
                                  sanctioned seed source"
                            .to_string(),
                    });
                }
            }
        }
    }
}
