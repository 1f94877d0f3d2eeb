//! Golden conformance suite: fixed-seed FNV-1a fingerprints of every
//! experiment's rendered section.
//!
//! The golden-artifacts test pins CSV bytes; this battery pins the
//! *report* sections, one named test per experiment, so a regression
//! points straight at the experiment that drifted instead of a giant
//! report diff. On failure the message prints the offending section —
//! inspect it, and if the change is intentional regenerate the constants
//! with:
//!
//! ```text
//! cargo test -p mlperf-suite --test conformance -- --ignored --nocapture
//! ```

use mlperf_suite::runner::{self, Ctx, Pool, ResilienceConfig};
use mlperf_testkit::hash::fnv1a64_str;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One strict execution shared by every fingerprint test.
fn rendered() -> &'static BTreeMap<&'static str, String> {
    static SECTIONS: OnceLock<BTreeMap<&'static str, String>> = OnceLock::new();
    SECTIONS.get_or_init(|| {
        let execution = runner::execute_resilient(
            &Pool::with_workers(1),
            &Ctx::new(),
            &runner::all_experiments(),
            &ResilienceConfig::strict(),
        );
        assert!(execution.root_cause().is_none(), "all experiments healthy");
        execution
            .reports
            .iter()
            .map(|r| (r.id, r.rendered.clone()))
            .collect()
    })
}

macro_rules! conformance {
    ($($test:ident => ($id:literal, $fp:literal)),+ $(,)?) => {
        $(
            #[test]
            fn $test() {
                let section = rendered()
                    .get($id)
                    .unwrap_or_else(|| panic!("experiment '{}' not scheduled", $id));
                let got = fnv1a64_str(section);
                let want: u64 = $fp;
                assert_eq!(
                    got, want,
                    "\nsection '{}' drifted from its golden fingerprint \
                     (got {:#018x}, want {:#018x});\noffending section:\n{}",
                    $id, got, want, section
                );
            }
        )+

        /// Regenerator: prints the current fingerprint table in macro
        /// syntax (run with `-- --ignored --nocapture` after an
        /// intentional change, then paste over the invocation below).
        #[test]
        #[ignore = "regenerates the golden constants; not a gate"]
        fn print_fingerprints() {
            for (id, section) in rendered() {
                let slug = id.replace(|c: char| !c.is_ascii_alphanumeric(), "_");
                println!(
                    "    {}_fingerprint => (\"{}\", {:#018x}),",
                    slug,
                    id,
                    fnv1a64_str(section)
                );
            }
        }

        /// The table above must cover the full experiment set — a new
        /// experiment has to come with a fingerprint.
        #[test]
        fn fingerprint_table_is_complete() {
            let pinned: &[&str] = &[$($id),+];
            let all = runner::all_experiments();
            assert_eq!(pinned.len(), all.len(), "fingerprint table out of sync");
            for e in all {
                assert!(
                    pinned.contains(&e.id()),
                    "experiment '{}' has no golden fingerprint",
                    e.id()
                );
            }
        }
    };
}

conformance! {
    batch_sweep_fingerprint => ("batch_sweep", 0xaca8d63b127022bc),
    cluster_study_fingerprint => ("cluster_study", 0x86bd653f59f3b623),
    colocation_study_fingerprint => ("colocation_study", 0x9e4138f10cbb30a5),
    energy_cost_fingerprint => ("energy_cost", 0xd86f11075749179e),
    fault_study_fingerprint => ("fault_study", 0xcb40352502963c14),
    figure1_fingerprint => ("figure1", 0x081a800b4753d117),
    figure2_fingerprint => ("figure2", 0x273fc4ce61050e6a),
    figure3_fingerprint => ("figure3", 0xbaa5f129a6ad24d6),
    figure4_fingerprint => ("figure4", 0xe08d8c325bf46110),
    figure5_fingerprint => ("figure5", 0x15de211c4021faff),
    partition_study_fingerprint => ("partition_study", 0xe8e321d4f1d3be8f),
    sensitivity_fingerprint => ("sensitivity", 0x80c59403b7ec1498),
    storage_study_fingerprint => ("storage_study", 0x7ef9d762fad32c2a),
    table1_fingerprint => ("table1", 0xa44eacb108f49693),
    table2_fingerprint => ("table2", 0xe64e401631951e1d),
    table3_fingerprint => ("table3", 0xe0fb6a89541bf797),
    table4_fingerprint => ("table4", 0xf45a845a3cddde58),
    table5_fingerprint => ("table5", 0x8d1f009188be0de8),
    validation_fingerprint => ("validation", 0xba688635a7b06efe),
    variance_decomposition_fingerprint => ("variance_decomposition", 0xe6c1f36d72100968),
}

/// The million-cell stress grid rides the registry truncated to its CI
/// prefix; its CSV bytes are pinned here like any other golden section —
/// and pinned *twice*, once per pricing engine, so the analytic fast
/// path can never drift the rendered output. (Registry sweeps are not
/// report experiments, so this lives outside the macro's pinned table.)
#[test]
fn million_cell_ci_prefix_fingerprint() {
    use mlperf_suite::sweep;
    let spec = sweep::registry()
        .into_iter()
        .find(|s| s.name == "million_cell")
        .expect("million_cell registered");
    assert_eq!(spec.len(), sweep::MILLION_CELL_CI_PREFIX);
    let fast = sweep::to_csv(&sweep::run_serial(
        &Ctx::new().with_fastpath(true),
        &spec,
        None,
    ));
    let slow = sweep::to_csv(&sweep::run_serial(
        &Ctx::new().with_fastpath(false),
        &spec,
        None,
    ));
    assert_eq!(fast, slow, "fast path changed million_cell CSV bytes");
    let got = fnv1a64_str(&fast);
    let want: u64 = 0x4c343ad7848663f1;
    assert_eq!(
        got, want,
        "million_cell CI prefix drifted (got {got:#018x}, want {want:#018x});\n{fast}"
    );
}
