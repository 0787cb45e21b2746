//! Workflow ensembles: orchestrating several workflows on one platform.
//!
//! Scientific discovery campaigns rarely run one DAG at a time — they
//! submit *ensembles*: parameter sweeps, observation batches, or
//! pipelines from several instruments arriving over time. The
//! [`EnsembleRunner`] shares the platform between members under a
//! configurable [`EnsemblePolicy`].
//!
//! An ensemble is the online dispatcher of [`OnlineRunner`] over one
//! union DAG: every member's tasks and edges, in the member's own order,
//! so member `m`'s task `t` is global task `base[m] + t` and keeps its
//! own noise and fault streams. Each member's entry tasks are released at its arrival,
//! and the ranked order puts a member key (the policy) ahead of task
//! rank. This module builds the union and splits the outcome back into
//! per-member reports.

use helios_energy::account;
use helios_platform::Platform;
use helios_sched::{CostModel, Placement, SchedError, Schedule};
use helios_sim::{SimDuration, SimTime};
use helios_workflow::{TaskId, Workflow, WorkflowBuilder};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::online::{Arbitration, OnlinePolicy, OnlineRunner};
use crate::report::TransferStats;

/// One workflow in an ensemble.
#[derive(Debug, Clone)]
pub struct EnsembleMember {
    /// The member's DAG.
    pub workflow: Workflow,
    /// When the member is submitted (its entry tasks cannot start
    /// earlier).
    pub arrival: SimTime,
    /// Relative importance under [`EnsemblePolicy::Priority`]; larger
    /// wins.
    pub priority: f64,
}

/// How the runner arbitrates between members competing for devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnsemblePolicy {
    /// Earlier-arrived members go first (ties by member index).
    #[default]
    Fifo,
    /// Higher-priority members go first.
    Priority,
    /// The member with the smallest fraction of completed work goes
    /// first — a max-min fair share of platform throughput.
    FairShare,
}

impl EnsemblePolicy {
    /// A short stable name for reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EnsemblePolicy::Fifo => "fifo",
            EnsemblePolicy::Priority => "priority",
            EnsemblePolicy::FairShare => "fair-share",
        }
    }
}

/// Per-member outcome of an ensemble run.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberReport {
    /// First task start.
    pub started: SimTime,
    /// Last task finish.
    pub finished: SimTime,
    /// `finished − arrival`: what the submitting scientist experiences.
    pub turnaround: SimDuration,
    /// The member's realized placements.
    pub schedule: Schedule,
}

/// Outcome of an ensemble run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleReport {
    /// Per-member results, in submission order.
    pub members: Vec<MemberReport>,
    /// Finish of the last task across members.
    pub makespan: SimDuration,
    /// Mean member turnaround.
    pub mean_turnaround: SimDuration,
    /// Total platform energy over the run.
    pub total_energy_j: f64,
    /// Aggregate transfer statistics.
    pub transfers: TransferStats,
}

/// Executes workflow ensembles with just-in-time dispatch.
#[derive(Debug, Clone)]
pub struct EnsembleRunner {
    config: EngineConfig,
    policy: EnsemblePolicy,
}

impl EnsembleRunner {
    /// Creates a runner.
    #[must_use]
    pub fn new(config: EngineConfig, policy: EnsemblePolicy) -> EnsembleRunner {
        EnsembleRunner { config, policy }
    }

    /// Runs the ensemble to completion. An [`EnsembleReport`] holds no
    /// execution trace, so the union runs with tracing off whatever
    /// [`EngineConfig::tracing`] says.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for an empty ensemble, or
    /// propagates model/dispatch errors.
    pub fn run(
        &self,
        platform: &Platform,
        members: &[EnsembleMember],
    ) -> Result<EnsembleReport, EngineError> {
        self.config.validate_for(platform)?;
        if members.is_empty() {
            return Err(EngineError::Config("ensemble has no members".into()));
        }

        // The union DAG: member m's task t is global task base[m] + t.
        let mut union = WorkflowBuilder::new("ensemble");
        let mut base = Vec::with_capacity(members.len());
        let mut owner = Vec::new();
        let mut ranks = Vec::new();
        for (m, member) in members.iter().enumerate() {
            let wf = &member.workflow;
            base.push(union.num_tasks());
            for task in wf.tasks() {
                union.add_task(task.clone());
                owner.push(m);
            }
            for edge in wf.edges() {
                union.add_dep(
                    TaskId(base[m] + edge.src.0),
                    TaskId(base[m] + edge.dst.0),
                    edge.bytes,
                )?;
            }
            // Ranks come from each member alone, so a rank error names
            // the member-local task.
            ranks.extend_from_slice(CostModel::new(wf, platform)?.bottom_levels(wf)?);
        }
        let union = union.build()?;
        let arbitration = Arbitration {
            policy: self.policy,
            ranks,
            owner,
            arrival: members.iter().map(|m| m.arrival).collect(),
            priority: members.iter().map(|m| m.priority).collect(),
            work: members
                .iter()
                .map(|m| m.workflow.total_gflop().max(1e-12))
                .collect(),
            done: vec![0.0; members.len()],
        };

        // Errors name the member-local task, as the member's own run
        // would.
        let local = |g: TaskId| TaskId(g.0 - base[base.partition_point(|&b| b <= g.0) - 1]);
        let config = EngineConfig {
            tracing: false,
            ..self.config.clone()
        };
        let runner = OnlineRunner::new(config, OnlinePolicy::RankedJit);
        let model = CostModel::new(&union, platform)?;
        let exec = runner
            .execute(&model, &union, &union, arbitration)
            .map_err(|e| match e {
                EngineError::Sched(SchedError::NoFeasibleDevice(g)) => {
                    EngineError::Sched(SchedError::NoFeasibleDevice(local(g)))
                }
                EngineError::RetriesExhausted { task, attempts } => EngineError::RetriesExhausted {
                    task: local(task),
                    attempts,
                },
                e => e,
            })?;

        // Assemble per-member reports.
        let mut reports = Vec::with_capacity(members.len());
        let mut overall_finish = SimTime::ZERO;
        let mut turnaround_sum = SimDuration::ZERO;
        let mut total_energy = 0.0;
        for (m, member) in members.iter().enumerate() {
            let placements: Vec<Placement> = (0..member.workflow.num_tasks())
                .map(|i| Placement {
                    task: TaskId(i),
                    ..exec.realized[base[m] + i].expect("all completed")
                })
                .collect();
            let started = placements
                .iter()
                .map(|p| p.start)
                .min()
                .unwrap_or(member.arrival);
            let finished = placements
                .iter()
                .map(|p| p.finish)
                .max()
                .unwrap_or(member.arrival);
            overall_finish = overall_finish.max(finished);
            let turnaround = finished.saturating_since(member.arrival);
            turnaround_sum += turnaround;
            let schedule = Schedule::new(placements)?;
            // Active energy only: idle attribution across members is not
            // well-defined, so the ensemble total reports actives plus a
            // single platform idle computed below.
            total_energy += account(&schedule, &member.workflow, platform, false)?.active_j;
            reports.push(MemberReport {
                started,
                finished,
                turnaround,
                schedule,
            });
        }
        Ok(EnsembleReport {
            mean_turnaround: turnaround_sum / members.len() as f64,
            makespan: overall_finish.saturating_since(SimTime::ZERO),
            total_energy_j: total_energy,
            transfers: exec.stats,
            members: reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_workflow::generators::{cybershake, montage};

    fn member(wf: Workflow, arrival: f64, priority: f64) -> EnsembleMember {
        EnsembleMember {
            workflow: wf,
            arrival: SimTime::from_secs(arrival),
            priority,
        }
    }

    #[test]
    fn empty_ensemble_rejected() {
        let p = presets::workstation();
        let r = EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::Fifo);
        assert!(matches!(r.run(&p, &[]), Err(EngineError::Config(_))));
    }

    #[test]
    fn single_member_completes_like_online() {
        let p = presets::hpc_node();
        let wf = montage(50, 1).unwrap();
        let members = [member(wf.clone(), 0.0, 1.0)];
        let report = EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::Fifo)
            .run(&p, &members)
            .unwrap();
        assert_eq!(report.members.len(), 1);
        assert_eq!(
            report.members[0].schedule.placements().len(),
            wf.num_tasks()
        );
        assert!(report.makespan.as_secs() > 0.0);
        assert_eq!(report.mean_turnaround, report.members[0].turnaround);
    }

    #[test]
    fn tracing_does_not_change_the_report() {
        let p = presets::hpc_node();
        let members = [
            member(montage(40, 1).unwrap(), 0.0, 1.0),
            member(cybershake(40, 2).unwrap(), 0.002, 5.0),
        ];
        let run = |tracing| {
            let config = EngineConfig {
                tracing,
                noise_cv: 0.1,
                link_contention: true,
                data_caching: true,
                ..EngineConfig::default()
            };
            EnsembleRunner::new(config, EnsemblePolicy::Priority)
                .run(&p, &members)
                .unwrap()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn arrivals_gate_start_times() {
        let p = presets::hpc_node();
        let members = [
            member(montage(40, 1).unwrap(), 0.0, 1.0),
            member(montage(40, 2).unwrap(), 5.0, 1.0),
        ];
        let report = EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::Fifo)
            .run(&p, &members)
            .unwrap();
        assert!(report.members[1].started >= SimTime::from_secs(5.0));
        assert!(report.members[0].started < SimTime::from_secs(1.0));
    }

    #[test]
    fn priority_policy_prefers_the_vip() {
        let p = presets::workstation();
        // Two identical members arriving together; the VIP should finish
        // no later than it does under FIFO-as-second.
        let wf = cybershake(60, 3).unwrap();
        let both = |policy, prio0: f64, prio1: f64| {
            let members = [
                member(wf.clone(), 0.0, prio0),
                member(wf.clone(), 0.0, prio1),
            ];
            EnsembleRunner::new(EngineConfig::default(), policy)
                .run(&p, &members)
                .unwrap()
        };
        let vip_second = both(EnsemblePolicy::Priority, 1.0, 10.0);
        // Member 1 is the VIP: its turnaround beats member 0's.
        assert!(
            vip_second.members[1].turnaround <= vip_second.members[0].turnaround,
            "VIP {} vs commoner {}",
            vip_second.members[1].turnaround,
            vip_second.members[0].turnaround
        );
    }

    #[test]
    fn fair_share_balances_turnarounds() {
        let p = presets::workstation();
        let members = [
            member(cybershake(60, 1).unwrap(), 0.0, 1.0),
            member(cybershake(60, 2).unwrap(), 0.0, 1.0),
        ];
        let fifo = EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::Fifo)
            .run(&p, &members)
            .unwrap();
        let fair = EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::FairShare)
            .run(&p, &members)
            .unwrap();
        let spread = |r: &EnsembleReport| {
            (r.members[0].turnaround.as_secs() - r.members[1].turnaround.as_secs()).abs()
        };
        assert!(
            spread(&fair) <= spread(&fifo) + 1e-9,
            "fair share should not widen the turnaround gap: fair {} fifo {}",
            spread(&fair),
            spread(&fifo)
        );
        // Everything still completes.
        for r in [&fifo, &fair] {
            for m in &r.members {
                assert_eq!(m.schedule.placements().len(), 60);
            }
        }
    }

    #[test]
    fn member_precedence_is_respected() {
        let p = presets::hpc_node();
        let members = [
            member(montage(40, 5).unwrap(), 0.0, 1.0),
            member(cybershake(40, 6).unwrap(), 0.01, 2.0),
        ];
        let report = EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::FairShare)
            .run(&p, &members)
            .unwrap();
        for (m, rep) in report.members.iter().enumerate() {
            let wf = &members[m].workflow;
            for pl in rep.schedule.placements() {
                for &e in wf.predecessors(pl.task) {
                    let edge = wf.edge(e);
                    let pred = rep.schedule.placement(edge.src).unwrap();
                    assert!(
                        pred.finish.as_secs() <= pl.start.as_secs() + 1e-9,
                        "member {m}: {} before {}",
                        pl.task,
                        edge.src
                    );
                }
            }
        }
    }
}
