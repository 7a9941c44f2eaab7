//! A `Progress` observer that timestamps task completions, and the shape
//! of a run read off those timestamps.

use crate::stats;
use lumen_core::Progress;
use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Records when (and on which thread) each task completed.
#[derive(Debug, Default)]
pub struct Recorder {
    completions: Mutex<Vec<(Instant, ThreadId)>>,
    clients: Mutex<Vec<(Instant, usize)>>,
}

impl Progress for Recorder {
    fn on_photons(&self, _completed: u64, _total: u64) {
        let now = Instant::now();
        self.completions.lock().expect("progress lock").push((now, std::thread::current().id()));
    }

    fn on_clients(&self, connected: usize) {
        self.clients.lock().expect("progress lock").push((Instant::now(), connected));
    }
}

/// How a backend call spent its time, from its completion timestamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunShape {
    /// Backend return minus the last task completion: the in-order fold.
    pub fold_s: f64,
    /// Last completion minus the moment the first worker went idle.
    pub tail_idle_s: f64,
    /// Median gap between consecutive task completions (ms).
    pub gap_p50_ms: f64,
    /// Smallest share of the tasks that one worker completed.
    pub worker_share_min: f64,
    /// Backend start until `workers` clients were connected (elastic
    /// backends only).
    pub join_s: Option<f64>,
}

impl Recorder {
    /// The shape of a run that started at `start`, returned at `end`, and
    /// ran on `workers` workers. `per_worker_tasks` overrides the task
    /// split when the backend reports it (the cluster does; its progress
    /// calls all come from the server thread).
    pub fn shape(
        &self,
        start: Instant,
        end: Instant,
        workers: usize,
        per_worker_tasks: Option<&[u64]>,
    ) -> RunShape {
        let completions = self.completions.lock().expect("progress lock").clone();
        let secs = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
        let mut times: Vec<Instant> = completions.iter().map(|c| c.0).collect();
        times.sort();
        let last = times.last().copied().unwrap_or(end);

        let mut last_by_thread: HashMap<ThreadId, (Instant, u64)> = HashMap::new();
        for &(t, thread) in &completions {
            let e = last_by_thread.entry(thread).or_insert((t, 0));
            e.0 = e.0.max(t);
            e.1 += 1;
        }
        // Workers that report on their own threads go idle at their own last
        // completion. When one thread reports for everyone (a server loop),
        // demand-driven leasing makes the last `workers` completions each
        // worker's final one, so the earliest of them is the first to idle.
        let first_idle = if last_by_thread.len() > 1 {
            last_by_thread.values().map(|v| v.0).min().unwrap_or(last)
        } else {
            times.len().checked_sub(workers.max(1)).map_or(last, |i| times[i])
        };
        let gaps: Vec<f64> = times.windows(2).map(|w| secs(w[0], w[1]) * 1e3).collect();

        let counts: Vec<u64> = match per_worker_tasks {
            Some(c) => c.to_vec(),
            None => last_by_thread.values().map(|v| v.1).collect(),
        };
        let total: u64 = counts.iter().sum();
        let worker_share_min = if counts.len() < workers {
            0.0
        } else {
            counts.iter().min().map_or(0.0, |&m| m as f64 / total.max(1) as f64)
        };

        let join_s = self
            .clients
            .lock()
            .expect("progress lock")
            .iter()
            .find(|c| c.1 >= workers)
            .map(|c| secs(start, c.0));

        RunShape {
            fold_s: secs(last, end),
            tail_idle_s: secs(first_idle, last),
            gap_p50_ms: stats::median(&gaps).unwrap_or(0.0),
            worker_share_min,
            join_s,
        }
    }
}
