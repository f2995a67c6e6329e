//! The main conformance fuzz loop.
//!
//! Generates random divergent programs and checks every SR transform
//! variant against the PDOM baseline across all scheduler policies
//! (see `conformance::oracle`). The case count defaults to 256 and is
//! capped by the `CONFORMANCE_CASES` environment variable (CI's smoke
//! job sets a small value). On failure the spec is minimized with the
//! genome shrinker and dumped to `$CONFORMANCE_ARTIFACT_DIR` (or
//! `target/conformance/`) so the case can be replayed from its seed.

use conformance::program::spec_strategy;
use conformance::{build_module, check, shrink, ProgramSpec};
use proptest::prelude::*;

fn artifact_dir() -> std::path::PathBuf {
    match std::env::var_os("CONFORMANCE_ARTIFACT_DIR") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/conformance"),
    }
}

fn write_artifact(original: &ProgramSpec, minimized: &ProgramSpec, violation: &str) -> String {
    let dir = artifact_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return format!("<failed to create {}: {e}>", dir.display());
    }
    let path = dir.join(format!("seed-{:016x}.txt", original.seed));
    let minimized_violation =
        check(minimized).err().unwrap_or_else(|| "<minimized spec no longer fails>".to_string());
    let body = format!(
        "conformance failure\n===================\n\
         replay: CONFORMANCE_SEED={:#018x} cargo test -p conformance --test fuzz_equivalence -- replay_env_seed\n\n\
         original spec:\n{original:#?}\n\noriginal violation:\n{violation}\n\n\
         minimized spec:\n{minimized:#?}\n\nminimized module:\n{}\n\nminimized violation:\n{minimized_violation}\n",
        original.seed,
        build_module(minimized),
    );
    match std::fs::write(&path, body) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("<failed to write {}: {e}>", path.display()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: conformance::configured_cases(256),
        .. ProptestConfig::default()
    })]

    #[test]
    fn every_variant_matches_the_baseline(spec in spec_strategy()) {
        if let Err(violation) = check(&spec) {
            let minimized = shrink(&spec, conformance::shrink::DEFAULT_BUDGET);
            let artifact = write_artifact(&spec, &minimized, &violation);
            prop_assert!(
                false,
                "generator seed {:#018x} violated SR equivalence:\n{}\nminimized artifact: {}",
                spec.seed, violation, artifact
            );
        }
    }
}

/// Replays a single seed from `CONFORMANCE_SEED` (used by the artifact
/// instructions); a no-op when the variable is unset.
#[test]
fn replay_env_seed() {
    let Some(seed) = conformance::replay_seed() else {
        return;
    };
    let spec = ProgramSpec::generate(seed);
    if let Err(violation) = check(&spec) {
        panic!("seed {seed:#018x}:\n{violation}");
    }
}
