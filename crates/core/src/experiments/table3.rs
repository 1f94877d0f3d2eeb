//! Table III: hardware specifications of the experimental platforms.

use crate::report::Table;
use crate::runner::{Artifact, Ctx, Experiment, ExperimentError};
use mlperf_hw::systems::SystemId;

/// Render the platform-specification table, including the derived
/// GPU-to-GPU path classification that drives §V-E.
pub fn render() -> String {
    let mut t = Table::new(
        "Table III: Hardware specifications of systems for experimentation",
        [
            "System",
            "CPUs",
            "DIMMs",
            "GPUs",
            "GPU model",
            "Interconnect",
            "Worst GPU-GPU path",
        ],
    );
    for id in SystemId::ALL {
        let spec = id.spec();
        let worst = if spec.gpu_count() >= 2 {
            let gpus: Vec<u32> = (0..spec.gpu_count() as u32).collect();
            spec.topology()
                .worst_peer_path(&gpus)
                .map(|p| p.class.to_string())
                .unwrap_or_else(|e| format!("error: {e}"))
        } else {
            "n/a (single GPU)".to_string()
        };
        t.add_row([
            id.name().to_string(),
            format!("{}x {}", spec.cpu_count(), spec.cpu_model().spec().name()),
            spec.dimms().to_string(),
            spec.gpu_count().to_string(),
            spec.gpu_model().spec().name().to_string(),
            spec.interconnect_label().to_string(),
            worst,
        ]);
    }
    t.to_string()
}

/// Table III as the executor schedules it. The table derives from static
/// platform specs — `run` prices nothing and the artifact carries no
/// payload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exp;

impl Experiment for Exp {
    fn id(&self) -> &'static str {
        "table3"
    }

    fn title(&self) -> &'static str {
        "Table III: platform hardware specifications"
    }

    fn run(&self, _ctx: &Ctx) -> Result<Artifact, ExperimentError> {
        Ok(Artifact::Table3)
    }

    fn render(&self, _artifact: &Artifact) -> String {
        render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_platforms_rendered() {
        let s = render();
        for id in SystemId::ALL {
            assert!(s.contains(id.name()), "{id}");
        }
        assert!(s.contains("NVLink P2P"));
        assert!(s.contains("PCIe-switch P2P"));
    }

    #[test]
    fn class_hierarchy_matches_section_v_e() {
        use mlperf_hw::topology::P2pClass;
        // The table's derived worst-path column, per 4-GPU platform.
        let table = render();
        let worst_path = |id: SystemId| {
            let row = table
                .lines()
                .find(|l| l.starts_with(&format!("| {} ", id.name())))
                .unwrap_or_else(|| panic!("no row for {id}"));
            let last = row.trim_end_matches('|').rsplit('|').next();
            last.expect("row has cells").trim().to_string()
        };
        for (id, class) in [
            (SystemId::C4140M, P2pClass::NvLinkDirect),
            (SystemId::C4140K, P2pClass::NvLinkDirect),
            (SystemId::C4140B, P2pClass::PcieSwitchP2p),
            (SystemId::T640, P2pClass::ThroughUpi),
            (SystemId::R940Xa, P2pClass::ThroughUpi),
        ] {
            assert_eq!(worst_path(id), class.to_string(), "{id}");
        }
    }
}
