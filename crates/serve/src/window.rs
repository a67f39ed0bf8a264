//! Rolling-window aggregation over the daemon's virtual clock.
//!
//! The queue's tick counter (one tick per admission, one per drain round)
//! is chopped into fixed-width windows; each window accumulates the events
//! that happened inside it — submissions, rejections by reason code,
//! completions with their stage latencies. A bounded ring of closed windows
//! plus the in-progress one gives the SLO evaluator its fast/slow burn
//! horizons, and the status snapshot its recent-history table. Everything
//! is integer arithmetic over deterministic ticks, so two drains of the
//! same submission sequence produce identical windows at any `--jobs`
//! count.

use crate::report::hit_rate;
use benchpark_telemetry::HistogramStats;
use std::collections::{BTreeMap, VecDeque};

/// Window geometry: how wide each window is and how many closed windows
/// the ring retains.
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Virtual ticks per window.
    pub width_ticks: u64,
    /// Closed windows kept in the ring (the slow-burn horizon).
    pub retain: usize,
}

impl Default for WindowConfig {
    fn default() -> WindowConfig {
        WindowConfig {
            width_ticks: 64,
            retain: 16,
        }
    }
}

/// One window's accumulated service activity.
#[derive(Debug, Clone, Default)]
pub struct WindowSummary {
    /// Window ordinal (`start_tick / width`).
    pub index: u64,
    /// First tick covered (inclusive).
    pub start_tick: u64,
    /// One past the last tick covered.
    pub end_tick: u64,
    /// Requests admitted in this window.
    pub submitted: u64,
    /// Rejections in this window, by kebab-case reason code.
    pub rejected: BTreeMap<String, u64>,
    /// Requests committed successfully in this window.
    pub completed: u64,
    /// Requests whose pipeline errored in this window.
    pub failed: u64,
    /// Completions served by the memo fastpath.
    pub fastpath: u64,
    /// Experiments measured fresh in this window.
    pub experiments_fresh: u64,
    /// Experiments spliced from fingerprint caches in this window.
    pub experiments_cached: u64,
    /// Queue-wait latencies of requests committed in this window.
    pub queue_wait: HistogramStats,
    /// Execute latencies of requests committed in this window.
    pub execute: HistogramStats,
}

impl WindowSummary {
    fn at(index: u64, width: u64) -> WindowSummary {
        WindowSummary {
            index,
            start_tick: index * width,
            end_tick: (index + 1) * width,
            ..WindowSummary::default()
        }
    }

    /// Total rejections across all reason codes.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.values().sum()
    }

    /// Completed requests per virtual tick of window width.
    pub fn throughput(&self) -> f64 {
        let width = self.end_tick.saturating_sub(self.start_tick);
        if width == 0 {
            return 0.0;
        }
        self.completed as f64 / width as f64
    }

    /// Fraction of arriving requests that were refused.
    pub fn reject_rate(&self) -> f64 {
        let arrived = self.submitted + self.rejected_total();
        if arrived == 0 {
            return 0.0;
        }
        self.rejected_total() as f64 / arrived as f64
    }

    /// Fraction of experiments satisfied from fingerprint caches.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.experiments_fresh, self.experiments_cached)
    }

    /// Fraction of finished requests that failed.
    pub fn fail_rate(&self) -> f64 {
        let finished = self.completed + self.failed;
        if finished == 0 {
            return 0.0;
        }
        self.failed as f64 / finished as f64
    }

    /// True when nothing at all happened in this window.
    pub fn is_empty(&self) -> bool {
        self.submitted == 0 && self.rejected.is_empty() && self.completed == 0 && self.failed == 0
    }

    fn absorb(&mut self, other: &WindowSummary) {
        self.submitted += other.submitted;
        for (code, count) in &other.rejected {
            *self.rejected.entry(code.clone()).or_insert(0) += count;
        }
        self.completed += other.completed;
        self.failed += other.failed;
        self.fastpath += other.fastpath;
        self.experiments_fresh += other.experiments_fresh;
        self.experiments_cached += other.experiments_cached;
        self.queue_wait.merge(&other.queue_wait);
        self.execute.merge(&other.execute);
    }
}

/// One request completion, as fed to [`RollingWindows::record_complete`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CompletionEvent {
    /// The pipeline errored.
    pub failed: bool,
    /// Served by the memo fastpath.
    pub fastpath: bool,
    /// Experiments measured fresh.
    pub fresh: u64,
    /// Experiments spliced from caches.
    pub cached: u64,
    /// Ticks spent queued.
    pub queue_wait_ticks: u64,
    /// Virtual execution ticks.
    pub execute_ticks: u64,
}

/// The fixed-width ring of window summaries. Events arrive stamped with the
/// queue tick they happened at; the ring closes windows as the clock
/// crosses their boundaries and drops the oldest beyond the retention
/// horizon.
#[derive(Debug, Clone)]
pub struct RollingWindows {
    config: WindowConfig,
    current: WindowSummary,
    closed: VecDeque<WindowSummary>,
}

impl RollingWindows {
    /// An empty ring with `config`'s geometry.
    pub fn new(config: WindowConfig) -> RollingWindows {
        let width = config.width_ticks.max(1);
        let config = WindowConfig {
            width_ticks: width,
            retain: config.retain.max(1),
        };
        RollingWindows {
            current: WindowSummary::at(0, width),
            config,
            closed: VecDeque::new(),
        }
    }

    /// The window geometry in force.
    pub fn config(&self) -> &WindowConfig {
        &self.config
    }

    /// Closes windows until `tick` falls inside the current one.
    pub fn roll_to(&mut self, tick: u64) {
        while tick >= self.current.end_tick {
            let next = WindowSummary::at(self.current.index + 1, self.config.width_ticks);
            let finished = std::mem::replace(&mut self.current, next);
            // empty windows still close (a silent service is data), but
            // only non-trivial ones consume retention slots
            if !finished.is_empty() {
                self.closed.push_back(finished);
                while self.closed.len() > self.config.retain {
                    self.closed.pop_front();
                }
            }
        }
    }

    /// Records one admission at `tick`.
    pub fn record_submit(&mut self, tick: u64) {
        self.roll_to(tick);
        self.current.submitted += 1;
    }

    /// Records one rejection at `tick` under its reason code.
    pub fn record_reject(&mut self, tick: u64, code: &str) {
        self.roll_to(tick);
        *self.current.rejected.entry(code.to_string()).or_insert(0) += 1;
    }

    /// Records one request completion at `tick`.
    pub fn record_complete(&mut self, tick: u64, event: CompletionEvent) {
        self.roll_to(tick);
        let window = &mut self.current;
        if event.failed {
            window.failed += 1;
        } else {
            window.completed += 1;
            if event.fastpath {
                window.fastpath += 1;
            }
        }
        window.experiments_fresh += event.fresh;
        window.experiments_cached += event.cached;
        window.queue_wait.record(event.queue_wait_ticks);
        window.execute.record(event.execute_ticks);
    }

    /// Retained windows oldest-first, ending with the in-progress one when
    /// it has any activity.
    pub fn views(&self) -> Vec<&WindowSummary> {
        let mut out: Vec<&WindowSummary> = self.closed.iter().collect();
        if !self.current.is_empty() || out.is_empty() {
            out.push(&self.current);
        }
        out
    }

    /// The most recent window with activity — the SLO evaluator's fast-burn
    /// horizon.
    pub fn fast(&self) -> &WindowSummary {
        if self.current.is_empty() {
            if let Some(last) = self.closed.back() {
                return last;
            }
        }
        &self.current
    }

    /// The union of every retained window — the slow-burn horizon.
    pub fn slow(&self) -> WindowSummary {
        let mut merged = WindowSummary::at(0, self.config.width_ticks);
        if let Some(first) = self.closed.front() {
            merged.index = first.index;
            merged.start_tick = first.start_tick;
        } else {
            merged.index = self.current.index;
            merged.start_tick = self.current.start_tick;
        }
        merged.end_tick = self.current.end_tick;
        for window in &self.closed {
            merged.absorb(window);
        }
        merged.absorb(&self.current);
        merged
    }
}

impl Default for RollingWindows {
    fn default() -> RollingWindows {
        RollingWindows::new(WindowConfig::default())
    }
}
