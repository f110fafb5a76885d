//! Study-level dataset construction: the three regional populations.

use forest::parallel::run_units;
use telemetry::{Census, Fleet, FleetConfig, RegionConfig, RegionId};

/// Study parameters.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Population scale relative to the canonical region sizes (1.0 ≈
    /// 18k databases across three regions). Tests and benches use
    /// smaller scales.
    pub scale: f64,
    /// Master seed for fleet generation.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            scale: 1.0,
            seed: 0x05DB_2018,
        }
    }
}

/// The loaded study: one generated fleet per region.
#[derive(Debug, Clone)]
pub struct Study {
    config: StudyConfig,
    fleets: Vec<Fleet>,
}

impl Study {
    /// Generates all three regional fleets, one parallel work unit
    /// each.
    pub fn load(config: StudyConfig) -> Study {
        let fleets = run_units(RegionId::ALL.len(), |i| {
            Fleet::generate(FleetConfig::new(
                RegionConfig::canonical(RegionId::ALL[i]).scaled(config.scale),
                // Distinct per-region streams from the master seed.
                config.seed.wrapping_add(i as u64 * 0x9E37_79B9),
            ))
        });
        Study { config, fleets }
    }

    /// Generates a single-region study (cheaper for examples).
    pub fn load_region(config: StudyConfig, id: RegionId) -> Study {
        let fleet = Fleet::generate(FleetConfig::new(
            RegionConfig::canonical(id).scaled(config.scale),
            config.seed,
        ));
        Study {
            config,
            fleets: vec![fleet],
        }
    }

    /// The configuration used.
    pub fn config(&self) -> StudyConfig {
        self.config
    }

    /// Fleets, in [`RegionId::ALL`] order (or the single loaded region).
    pub fn fleets(&self) -> &[Fleet] {
        &self.fleets
    }

    /// The fleet of one region.
    ///
    /// # Panics
    ///
    /// Panics if the region was not loaded.
    pub fn fleet(&self, id: RegionId) -> &Fleet {
        self.fleets
            .iter()
            .find(|f| f.config.region.id == id)
            .unwrap_or_else(|| panic!("region {id} not loaded"))
    }

    /// A census over one region's fleet.
    pub fn census(&self, id: RegionId) -> Census<'_> {
        Census::new(self.fleet(id))
    }

    /// Total database count across loaded regions.
    pub fn database_count(&self) -> usize {
        self.fleets.iter().map(|f| f.databases.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_three_regions() {
        let study = Study::load(StudyConfig {
            scale: 0.02,
            seed: 7,
        });
        assert_eq!(study.fleets().len(), 3);
        for id in RegionId::ALL {
            assert_eq!(study.fleet(id).config.region.id, id);
            assert!(!study.census(id).fleet().databases.is_empty());
        }
        assert!(study.database_count() > 100);
    }

    #[test]
    fn regions_use_distinct_seeds() {
        let study = Study::load(StudyConfig {
            scale: 0.02,
            seed: 7,
        });
        let a = &study.fleet(RegionId::Region1).databases;
        let b = &study.fleet(RegionId::Region2).databases;
        assert!(a[0].database_name != b[0].database_name || a.len() != b.len());
    }

    #[test]
    fn single_region_load() {
        let study = Study::load_region(
            StudyConfig {
                scale: 0.02,
                seed: 9,
            },
            RegionId::Region2,
        );
        assert_eq!(study.fleets().len(), 1);
        assert_eq!(study.fleets()[0].config.region.id, RegionId::Region2);
    }

    #[test]
    #[should_panic]
    fn missing_region_panics() {
        let study = Study::load_region(
            StudyConfig {
                scale: 0.02,
                seed: 9,
            },
            RegionId::Region2,
        );
        study.fleet(RegionId::Region3);
    }
}
