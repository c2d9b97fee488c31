//! Launch configuration: machine, placement, fabric choice, collectives.

use caf_collectives::CollectiveConfig;
use caf_fabric::{ArcFabric, ChaosConfig, SimConfig, SimFabric, ThreadConfig, ThreadFabric};
use caf_topology::{ImageMap, MachineModel, Placement};

/// Which communication substrate to run on.
#[derive(Clone, Debug)]
pub enum FabricChoice {
    /// The deterministic virtual-time simulator (`caf-fabric::SimFabric`) —
    /// the engine behind every reproduced experiment.
    Sim(SimConfig),
    /// Real shared-memory threads: a `caf-fabric::SocketFabric` whose one
    /// process hosts every image (`ThreadFabric`), no socket involved.
    Threads(ThreadConfig),
}

/// Everything needed to launch an SPMD run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The (possibly simulated) cluster.
    pub machine: MachineModel,
    /// Number of images to launch.
    pub images: usize,
    /// Image → core placement policy.
    pub placement: Placement,
    /// Communication substrate.
    pub fabric: FabricChoice,
    /// Team collective algorithms (inherited by subteams).
    pub collectives: CollectiveConfig,
}

impl RunConfig {
    /// Simulator fabric, packed placement, hierarchy-aware collectives.
    pub fn sim_packed(machine: MachineModel, images: usize) -> Self {
        Self {
            machine,
            images,
            placement: Placement::Packed,
            fabric: FabricChoice::Sim(SimConfig::default()),
            collectives: CollectiveConfig::auto(),
        }
    }

    /// Like [`sim_packed`](Self::sim_packed) but under the seeded chaos
    /// scheduler: the canonical [`ChaosConfig::from_seed`] perturbation,
    /// deterministic per seed. Used by `caf-check` and the chaos variants
    /// of the cross-crate conformance tests.
    pub fn sim_chaos(machine: MachineModel, images: usize, seed: u64) -> Self {
        Self::sim_packed(machine, images).with_chaos(ChaosConfig::from_seed(seed))
    }

    /// Install a specific chaos configuration (panics on a threads fabric,
    /// which has no virtual-time scheduler to perturb).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        match &mut self.fabric {
            FabricChoice::Sim(cfg) => cfg.chaos = Some(chaos),
            FabricChoice::Threads(_) => {
                panic!("chaos scheduling is a SimFabric feature; use FabricChoice::Sim")
            }
        }
        self
    }

    /// Real-threads fabric, packed placement, hierarchy-aware collectives.
    pub fn threads_packed(machine: MachineModel, images: usize) -> Self {
        Self {
            machine,
            images,
            placement: Placement::Packed,
            fabric: FabricChoice::Threads(ThreadConfig::default()),
            collectives: CollectiveConfig::auto(),
        }
    }

    /// Replace the placement policy.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Replace the collective configuration.
    pub fn with_collectives(mut self, collectives: CollectiveConfig) -> Self {
        self.collectives = collectives;
        self
    }

    /// Materialize the fabric described by this configuration.
    pub fn build_fabric(&self) -> ArcFabric {
        let map = ImageMap::new(self.machine.clone(), self.images, &self.placement);
        match &self.fabric {
            FabricChoice::Sim(cfg) => SimFabric::new(map, cfg.clone()),
            FabricChoice::Threads(cfg) => ThreadFabric::new(map, cfg.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_topology::presets;

    #[test]
    fn build_sim_fabric() {
        let cfg = RunConfig::sim_packed(presets::mini(2, 4), 8);
        let f = cfg.build_fabric();
        assert_eq!(f.n_images(), 8);
        assert_eq!(f.image_map().occupied_nodes(), 2);
    }

    #[test]
    fn build_thread_fabric_with_cyclic_placement() {
        let cfg =
            RunConfig::threads_packed(presets::mini(4, 2), 4).with_placement(Placement::Cyclic);
        let f = cfg.build_fabric();
        assert_eq!(f.image_map().occupied_nodes(), 4);
        assert_eq!(f.image_map().max_images_per_node(), 1);
    }

    #[test]
    fn with_collectives_overrides() {
        let cfg = RunConfig::sim_packed(presets::mini(1, 2), 2)
            .with_collectives(CollectiveConfig::one_level());
        assert_eq!(cfg.collectives, CollectiveConfig::one_level());
    }
}
