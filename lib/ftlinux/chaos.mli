(** Chaos campaign engine: derived fault schedules, verdicts, shrinking.

    A campaign derives [count] schedules from one root seed; each schedule
    is a deterministic function of [(root_seed, index)] — random hardware
    faults (times, targets, kinds, coherency disruption) plus client-link
    perturbation windows (added loss and delay).  The engine is
    workload-agnostic: the caller supplies [run : schedule -> outcome],
    which builds a fresh simulation, applies the schedule and judges the
    run (see [Ftsim_apps.Chaosrun]).  When a schedule fails, the engine
    greedily {!shrink}s it — dropping injections and perturbations, then
    advancing injection times toward zero — re-running after each step and
    keeping only changes under which the failure still reproduces. *)

open Ftsim_sim

(** {1 Schedules} *)

type target = Replica_set.target =
  | T_primary
  | T_backup of int
      (** backup slot; resolved when the fault fires (see
          {!Cluster.inject}) *)

type injection = {
  inj_at : Time.t;
  inj_target : target;
  inj_kind : Ftsim_hw.Fault.kind;
  inj_disrupts : bool;  (** the fault also disrupts mailbox coherency *)
}

type perturbation = {
  pert_at : Time.t;
  pert_dur : Time.t;
  pert_loss : float;  (** added client-link loss probability, [0, 0.5) *)
  pert_delay : Time.t;  (** added client-link one-way delay *)
}

type schedule = {
  sched_index : int;  (** position in the campaign *)
  sched_seed : int;  (** derived seed; also seeds the run's engine *)
  horizon : Time.t;  (** simulated-time cap for the run *)
  injections : injection list;  (** at most 2, sorted by time *)
  perturbations : perturbation list;  (** at most 2 *)
}

val derive :
  root_seed:int -> index:int -> replicas:int -> horizon:Time.t -> schedule
(** The [index]-th schedule of a campaign.  With three replicas the fault
    budget rises to 3 and back-to-back double faults (second fault within
    30 ms of the first) become more likely, exercising the arbitration
    path. *)

val derive_multi :
  root_seed:int ->
  index:int ->
  replicas:int ->
  horizon:Time.t ->
  faults:int ->
  schedule
(** Multi-fault sequence for re-protection campaigns: exactly [faults]
    fail-stop-dominant injections, each landing in its own window across
    the first three quarters of the horizon, so the previous
    kill → failover → regenerate cycle has room to complete — or is hit
    mid-regeneration when a draw lands early in its window.  Targets are
    primary-heavy (roles move at every takeover, and each target is
    resolved when its fault fires).  Derivation is deterministic in
    [(root_seed, index, faults)]. *)

val pp_schedule : Format.formatter -> schedule -> unit

(** {1 Verdicts} *)

type verdict =
  | V_ok  (** run completed; replicas agreed and the client stream verified *)
  | V_divergence of string
      (** replica state digests diverged, or the secondary observed a
          structural replay mismatch *)
  | V_client_violation of string
      (** the client-consistency oracle saw corrupted, duplicated or lost
          committed output — or the stream stalled with a replica alive *)
  | V_outage
      (** every replica was killed; truncated client streams are excused *)
  | V_harness_error of string
      (** the run raised instead of returning a verdict: the exception is
          contained — it aborts neither the campaign nor, under a
          multi-domain pool, the other workers — and surfaces here naming
          the schedule's seed *)

val verdict_failing : verdict -> bool
(** Divergences, client violations and harness errors fail a campaign;
    outages do not (the fault model does not cover losing every
    replica). *)

val verdict_label : verdict -> string

type outcome = {
  verdict : verdict;
  o_failovers : int;  (** takeovers observed *)
  o_completed : int;  (** client responses fully verified *)
  o_sections : int;  (** digest snapshots compared *)
  o_end : Time.t;  (** simulated time when the run settled *)
  o_lag : string option;
      (** worst {!Lagmon} verdict label observed across the run's monitors
          ("ok" / "lagging" / "stalled"); [None] when no monitor ran *)
}

(** {1 Campaigns} *)

type run_result = { rr_schedule : schedule; rr_outcome : outcome }

type report = {
  rep_root_seed : int;
  rep_replicas : int;
  rep_workload : string;
  rep_horizon : Time.t;
  rep_results : run_result list;  (** campaign order *)
  rep_minimal : (schedule * outcome * int) option;
      (** first failure shrunk to a minimal repro, with the number of extra
          runs the shrinker spent *)
}

val default_jobs : unit -> int
(** The default campaign parallelism:
    [max 1 (Domain.recommended_domain_count () - 1)] — every core but the
    coordinator's. *)

val run_campaign :
  root_seed:int ->
  count:int ->
  replicas:int ->
  horizon:Time.t ->
  workload:string ->
  run:(schedule -> outcome) ->
  ?faults:int ->
  ?shrink_budget:int ->
  ?progress:(run_result -> unit) ->
  ?jobs:int ->
  unit ->
  report
(** Derive and run [count] schedules.  If any fails, the failing schedule
    with the lowest index is shrunk (default budget: 64 additional runs).
    [faults] switches derivation to {!derive_multi} with that fault budget
    per schedule (re-protection campaigns).

    [jobs] (default {!default_jobs}; clamped to [count]) sizes a pool of
    worker domains that schedule indices are fanned out across.  Each run
    builds a fully isolated simulation, so the merged report is
    {e byte-identical} to a sequential ([jobs = 1]) run of the same
    campaign: results are reassembled in campaign order, and shrinking
    always happens single-domain in the coordinator.  What does depend on
    [jobs] is only real-time interleaving: [progress] fires in completion
    order (from the coordinator's domain, never concurrently), and worker
    stderr lines ({!Statsdump}, {!Trace}) are routed through the
    coordinator's {!Sink} so they never tear.

    A [run] that raises yields a failing {!V_harness_error} result for its
    schedule — naming the seed — without aborting the pool or the
    campaign loop; the remaining schedules still run. *)

val failures : report -> run_result list

val shrink :
  run:(schedule -> outcome) ->
  budget:int ->
  schedule ->
  schedule * outcome * int
(** Greedy minimisation of a failing schedule: repeatedly try dropping one
    injection or perturbation, then halving one injection time, accepting a
    candidate only if the run still produces a failing verdict; stops at a
    fixpoint or when [budget] runs are spent.  Returns the smallest
    reproducer found, its outcome, and the runs used. *)

val report_to_json : report -> string
(** Hand-rolled JSON (stable field order, no trailing newline). *)
