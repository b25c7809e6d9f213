//! Per-stage CPU accounting of a sequential pass through the host
//! pipeline, measured from outside the engine.
//!
//! The pass drives the stages through their public entry points
//! (`model::host_pipeline` and `StageWorker::apply_multi`) on the calling
//! thread and reads `/proc/thread-self/schedstat` around every call. A
//! thread's CPU time over an interval is its wall time minus the time it
//! waited on a run queue (`run_delay`): stage calls compute and never
//! block, so this is the time the thread held a CPU, without the inflation
//! preemption adds to wall time. The kernel's own on-CPU counter advances
//! only at scheduler ticks (see [`crate::procfs`]) and is kept as a
//! cross-check over the whole pass.
//!
//! The ledger's identity: the stage spans are disjoint sub-intervals of
//! the pass, so Σ stage CPU + unaccounted CPU = the pass's CPU, exactly.

use crate::procfs::{SchedStat, ThreadClock};
use crate::spans::Spans;
use dfcnn_core::graph::StageInput;
use dfcnn_core::model::{HostStage, StageWorker};
use dfcnn_tensor::Tensor3;
use std::io;
use std::time::Instant;

/// A schedstat reading paired with the wall clock.
#[derive(Clone, Copy, Debug)]
struct Reading {
    wall: Instant,
    sched: SchedStat,
}

impl Reading {
    /// A reading whose wall stamp is consistent with its counters: if the
    /// thread was preempted between the counter read and the stamp, the
    /// wait would land on the wrong side of the stamp, so read again.
    fn now(clock: &mut ThreadClock) -> io::Result<Self> {
        loop {
            let sched = clock.read()?;
            let wall = Instant::now();
            if clock.read()?.run_delay_ns == sched.run_delay_ns {
                return Ok(Reading { wall, sched });
            }
        }
    }

    /// CPU nanoseconds the thread used since `earlier`.
    fn cpu_since(&self, earlier: &Reading) -> u64 {
        let wall = u64::try_from((self.wall - earlier.wall).as_nanos()).unwrap_or(u64::MAX);
        let queued = self.sched.run_delay_ns - earlier.sched.run_delay_ns;
        wall.saturating_sub(queued)
    }
}

/// Where a pass's CPU time went.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageLedger {
    /// Stage names, in pipeline order.
    pub names: Vec<String>,
    /// CPU nanoseconds inside each stage's `apply_multi` calls.
    pub stage_cpu_ns: Vec<u64>,
    /// CPU nanoseconds of the whole pass.
    pub pass_cpu_ns: u64,
    /// The kernel's tick-sampled on-CPU counter over the pass.
    pub pass_on_cpu_counter_ns: u64,
    /// Wall nanoseconds of the pass.
    pub pass_wall_ns: u64,
    /// Images pushed through.
    pub images: u64,
}

impl StageLedger {
    /// An empty ledger over the given stages.
    pub fn new(names: Vec<String>) -> Self {
        StageLedger {
            stage_cpu_ns: vec![0; names.len()],
            names,
            pass_cpu_ns: 0,
            pass_on_cpu_counter_ns: 0,
            pass_wall_ns: 0,
            images: 0,
        }
    }

    /// CPU time inside stage calls.
    pub fn accounted_ns(&self) -> u64 {
        self.stage_cpu_ns.iter().sum()
    }

    /// CPU time of the pass outside every stage call: worker and buffer
    /// set-up, operand gathering, output copies and the readings
    /// themselves.
    ///
    /// # Panics
    /// If the stages account for more than the pass, which would mean the
    /// spans overlapped or left the pass.
    pub fn unaccounted_ns(&self) -> u64 {
        self.pass_cpu_ns
            .checked_sub(self.accounted_ns())
            .expect("stage spans lie within the pass and never overlap")
    }

    /// Fold another pass over the same stages into this one.
    pub fn merge(&mut self, other: &StageLedger) {
        assert_eq!(self.names, other.names, "ledgers of different pipelines");
        for (a, b) in self.stage_cpu_ns.iter_mut().zip(&other.stage_cpu_ns) {
            *a += b;
        }
        self.pass_cpu_ns += other.pass_cpu_ns;
        self.pass_on_cpu_counter_ns += other.pass_on_cpu_counter_ns;
        self.pass_wall_ns += other.pass_wall_ns;
        self.images += other.images;
    }
}

/// Push `images` one at a time through `stages` on the calling thread,
/// reading `clock` (which must belong to this thread) around every
/// `apply_multi` call. Records a span per pass, image and stage call, and
/// returns the ledger and each image's output.
pub fn traced_pass(
    stages: &[HostStage],
    images: &[Tensor3<f32>],
    clock: &mut ThreadClock,
    spans: &mut Spans,
) -> io::Result<(StageLedger, Vec<Tensor3<f32>>)> {
    let stage_names: Vec<u32> = stages.iter().map(|s| spans.intern(&s.spec.name)).collect();
    let pass_name = spans.intern("model.pass");
    let image_name = spans.intern("model.image");
    let pass_span = spans.open(pass_name, 0, None);
    let start = Reading::now(clock)?;

    let mut workers: Vec<Box<dyn StageWorker>> =
        stages.iter().map(|s| s.spec.make_worker()).collect();
    let mut bufs: Vec<Tensor3<f32>> = stages
        .iter()
        .map(|s| Tensor3::zeros(s.spec.out_shape))
        .collect();
    let mut ledger = StageLedger::new(stages.iter().map(|s| s.spec.name.clone()).collect());
    let mut outputs = Vec::with_capacity(images.len());
    for (j, img) in images.iter().enumerate() {
        let id = j as u64;
        let image_span = spans.open(image_name, id, Some(pass_span));
        for (s, worker) in workers.iter_mut().enumerate() {
            let (done, rest) = bufs.split_at_mut(s);
            let operands: Vec<&Tensor3<f32>> = stages[s]
                .inputs
                .iter()
                .map(|inp| match inp {
                    StageInput::Image => img,
                    StageInput::Stage(t) => &done[*t],
                })
                .collect();
            let span = spans.open(stage_names[s], id, Some(image_span));
            let before = Reading::now(clock)?;
            worker.apply_multi(&operands, &mut rest[0]);
            let after = Reading::now(clock)?;
            let cpu = after.cpu_since(&before);
            spans.close(span, Some(cpu));
            ledger.stage_cpu_ns[s] += cpu;
        }
        outputs.push(bufs.last().expect("at least one stage").clone());
        spans.close(image_span, None);
    }

    let end = Reading::now(clock)?;
    ledger.pass_cpu_ns = end.cpu_since(&start);
    ledger.pass_on_cpu_counter_ns = end.sched.on_cpu_ns - start.sched.on_cpu_ns;
    ledger.pass_wall_ns = u64::try_from((end.wall - start.wall).as_nanos()).unwrap_or(u64::MAX);
    ledger.images = images.len() as u64;
    spans.close(pass_span, Some(ledger.pass_cpu_ns));
    Ok((ledger, outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcnn_core::graph::{DesignConfig, NetworkDesign, PortConfig};
    use dfcnn_core::model::host_pipeline;
    use dfcnn_datasets::{Generator, SyntheticUsps};
    use dfcnn_nn::topology::NetworkSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The stages add up: on a real pass, the stage CPU plus the
    /// unaccounted CPU equals the pass's CPU exactly, every stage span
    /// nests inside its image span, and the outputs are the design's.
    #[test]
    fn stages_add_up_to_the_pass() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let network = NetworkSpec::test_case_1().build(&mut rng);
        let design = NetworkDesign::new(
            &network,
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap();
        let images: Vec<_> = SyntheticUsps::new(10)
            .generate(6)
            .into_iter()
            .map(|(x, _)| x)
            .collect();
        let stages = host_pipeline(&design);
        let mut clock = ThreadClock::open().unwrap();
        let mut spans = Spans::new();
        let (ledger, outputs) = traced_pass(&stages, &images, &mut clock, &mut spans).unwrap();

        assert_eq!(ledger.images, 6);
        assert_eq!(
            ledger.accounted_ns() + ledger.unaccounted_ns(),
            ledger.pass_cpu_ns
        );
        assert!(ledger.accounted_ns() > 0);
        assert!(ledger.pass_cpu_ns <= ledger.pass_wall_ns);
        for (x, y) in images.iter().zip(&outputs) {
            assert_eq!(&design.hw_forward(x), y);
        }

        let all = spans.spans();
        assert_eq!(all.len(), 1 + 6 * (1 + stages.len()));
        for s in all
            .iter()
            .filter(|s| s.cpu_ns.is_some() && s.parent.is_some())
        {
            let parent = &all[s.parent.unwrap() as usize];
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            assert_eq!(parent.id, s.id, "a stage span belongs to its image");
        }
        let stage_cpu: u64 = all
            .iter()
            .filter(|s| s.parent.is_some_and(|p| all[p as usize].parent.is_some()))
            .map(|s| s.cpu_ns.unwrap())
            .sum();
        assert_eq!(stage_cpu, ledger.accounted_ns());
    }

    #[test]
    fn merged_ledgers_still_reconcile() {
        let mut a = StageLedger::new(vec!["conv1".into(), "fc1".into()]);
        a.stage_cpu_ns = vec![700, 200];
        a.pass_cpu_ns = 1000;
        a.images = 2;
        let mut b = a.clone();
        b.stage_cpu_ns = vec![650, 250];
        b.pass_cpu_ns = 950;
        a.merge(&b);
        assert_eq!(a.stage_cpu_ns, vec![1350, 450]);
        assert_eq!(a.unaccounted_ns(), 150);
        assert_eq!(a.accounted_ns() + a.unaccounted_ns(), a.pass_cpu_ns);
        assert_eq!(a.images, 4);
    }

    #[test]
    #[should_panic(expected = "never overlap")]
    fn overlapping_spans_are_caught() {
        let mut a = StageLedger::new(vec!["conv1".into()]);
        a.stage_cpu_ns = vec![11];
        a.pass_cpu_ns = 10;
        let _ = a.unaccounted_ns();
    }
}
