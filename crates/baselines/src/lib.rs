//! # shift-baselines
//!
//! The comparison runtimes evaluated alongside SHIFT in the paper:
//!
//! * [`single`] — a fixed (model, accelerator) pair executing every frame,
//!   the conventional "one DNN on the GPU" deployment.
//! * [`marlin`] — the Marlin policy (Apicharttrisorn et al., SenSys'19):
//!   instead of running the DNN on every frame, the system alternates between
//!   a lightweight tracker and the DNN, re-invoking the DNN when tracking
//!   degrades. `Marlin` uses YoloV7; `Marlin Tiny` uses YoloV7-Tiny.
//! * [`oracle`] — the paper's performance ceiling: an Oracle that runs every
//!   model on every frame at zero cost, keeps those above 0.5 IoU and picks
//!   the one optimizing the targeted metric (Energy, Accuracy or Latency).
//! * [`tracker`] — the NCC template tracker substrate Marlin builds on.
//!
//! Beyond the baselines the paper evaluates directly, the crate also
//! implements the related-work policies the paper argues against, so their
//! trade-offs can be measured on the same substrate:
//!
//! * [`offload`] — Glimpse-style edge-server offloading over a modeled
//!   wireless link, including outages and a local fallback.
//! * [`adavp`] — AdaVP-style adaptive input resolution plus frame skipping on
//!   a single GPU model.
//! * [`framehopper`] — FrameHopper-style selective frame processing driven by
//!   frame-to-frame similarity.
//!
//! All baselines emit the same [`shift_metrics::FrameRecord`] stream as the
//! SHIFT runtime, so the experiment harness can tabulate them side by side.
//! Each implements [`Baseline`]: a per-frame step plus engine access, over
//! which the one provided replay loop, [`Baseline::run`], drives a whole
//! stream, optionally under a scripted [`FaultPlan`].

pub mod adavp;
pub mod framehopper;
pub mod marlin;
pub mod offload;
pub mod oracle;
pub mod single;
pub mod tracker;

pub use adavp::{AdaVpConfig, AdaVpRuntime};
pub use framehopper::{FrameHopperConfig, FrameHopperRuntime};
pub use marlin::{MarlinConfig, MarlinRuntime};
pub use offload::{OffloadConfig, OffloadRuntime, OffloadStats};
pub use oracle::{OracleObjective, OracleRuntime};
pub use single::SingleModelRuntime;
pub use tracker::NccTracker;

use shift_metrics::FrameRecord;
use shift_models::ModelId;
use shift_soc::{AcceleratorId, ExecutionEngine, FaultInjector, FaultPlan, SocError};
use shift_video::Frame;

/// The per-frame surface every baseline runtime shares, and the one replay
/// loop over it.
pub trait Baseline {
    /// Processes one frame.
    ///
    /// # Errors
    ///
    /// Propagates execution errors from the SoC simulator.
    fn process_frame(&mut self, frame: &Frame) -> Result<FrameRecord, SocError>;

    /// Mutable access to the engine — the hook fault injection applies
    /// platform faults through between frames.
    fn engine_mut(&mut self) -> &mut ExecutionEngine;

    /// The (model, accelerator) pair a blind frame is attributed to: the
    /// pinned pair, or the first candidate of a multi-pair runtime.
    fn home_pair(&self) -> (ModelId, AcceleratorId);

    /// Runs the baseline over a frame stream.
    ///
    /// With a fault plan, the plan's injector advances to every frame before
    /// it runs, and a frame the engine refuses with
    /// [`SocError::AcceleratorOffline`] is recorded as *blind*: IoU 0, no
    /// latency and no energy, attributed to [`Baseline::home_pair`].
    ///
    /// # Errors
    ///
    /// Propagates the first execution error (any error at all when no plan
    /// is given).
    fn run(
        &mut self,
        frames: impl IntoIterator<Item = Frame>,
        faults: Option<&FaultPlan>,
    ) -> Result<Vec<FrameRecord>, SocError> {
        let mut injector = faults.cloned().map(FaultInjector::new);
        let mut records = Vec::new();
        for frame in frames {
            if let Some(injector) = injector.as_mut() {
                injector.advance(frame.index as u64, self.engine_mut());
            }
            let record = match self.process_frame(&frame) {
                Err(SocError::AcceleratorOffline(_)) if injector.is_some() => {
                    let (model, accelerator) = self.home_pair();
                    FrameRecord::new(frame.index, model, accelerator, 0.0, 0.0, 0.0, false)
                }
                result => result?,
            };
            records.push(record);
        }
        Ok(records)
    }
}
