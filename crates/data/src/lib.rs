//! Dataset and input-pipeline substrate.
//!
//! The study's corpora ([`dataset`]) are modeled by the four attributes its
//! measurements depend on (sample count, staged size, host preprocessing
//! cost, device bytes); [`loader`] composes them into the host→GPU input
//! pipeline the simulator overlaps with compute; [`storage`] prices how
//! fast a device can stage the corpus.
//!
//! # Examples
//!
//! ```
//! use mlperf_data::{DatasetId, InputPipeline};
//! use mlperf_hw::units::Bytes;
//!
//! let pipe = InputPipeline::new(DatasetId::ImageNet, Bytes::new(224 * 224 * 3 * 4));
//! assert_eq!(pipe.h2d_bytes_per_batch(2).as_u64(), 2 * 224 * 224 * 3 * 4);
//! ```

pub mod dataset;
pub mod loader;
pub mod storage;

pub use dataset::{DatasetId, DatasetSpec};
pub use loader::InputPipeline;
pub use storage::{ReadPattern, StagingPlan, StorageDevice};
