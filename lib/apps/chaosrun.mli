(** Workload scenario runner for chaos campaigns.

    Builds one complete simulation per schedule as a {!Scenario} — a
    replicated server cluster (two or three replicas) on
    {!Scenario.fast_failover} timings, the workload application, and a
    {!Loadgen.verified_start} client-consistency oracle as its client —
    arms the schedule's fault injections and link-perturbation windows in
    the scenario's [setup], runs to quiescence, and judges the run:
    replica-digest comparison and replay-divergence flags decide
    [V_divergence]; the oracle decides [V_client_violation]; a run that
    killed every replica is an [V_outage] (excusing a truncated client
    stream).  Runs are a pure function of the schedule's seed. *)

open Ftsim_sim
open Ftsim_ftlinux

type workload = Fileserver | Mongoose

val workload_of_string : string -> (workload, string) result
val workload_to_string : workload -> string

val config : Cluster.config
(** The chaos preset: {!Scenario.fast_failover} with a quiet {!Lagmon}
    (gauges and verdicts update, nothing reaches the Evlog, so repro traces
    stay byte-identical to monitor-off runs). *)

val run :
  ?on_trace:(Evlog.t -> unit) ->
  ?stats_interval:Time.t ->
  ?mutate:bool ->
  ?config:Cluster.config ->
  ?listen_shards:int ->
  ?admission:int ->
  workload:workload ->
  replicas:int ->
  Chaos.schedule ->
  Chaos.outcome
(** [on_trace] receives the run's event log after the verdict is reached
    (used to dump the minimal repro's trace).  [stats_interval] arms a
    {!Statsdump} printer on each run's engine (stderr, labelled with the
    schedule index).  [mutate] (testing only) makes the secondary skip one
    sync tuple's digest fold, proving the checker detects a seeded
    divergence.

    [config] (default {!config}) is the replicated server; its
    [replicas] and, for three replicas, its [topology] are set from
    [replicas]: three replicas run on a 4-NUMA-node machine.  Shapes
    {!Cluster.create} rejects raise [Invalid_argument].

    Injections go through {!Cluster.inject}, which resolves each target
    partition {e when the fault fires}: roles move at every takeover and
    epoch switch, and a fault landing on an already-halted target is a
    no-op.  Every run's failover count and outage test come from
    {!Cluster.failover_count} and {!Cluster.all_halted}.  With
    [config.reprotect] (two replicas only), {!Cluster} live re-protection
    is on; pair it with {!Chaos.derive_multi} schedules to exercise
    kill → regenerate cycles of arbitrary length.

    [listen_shards] (default 1) runs the workload server on a
    {!Ftsim_netstack.Tcp.listen_group} of that many accept-queue shards;
    [admission] arms its {!Admission} controller with the given in-flight
    budget and the oracle's [allow_shed] retry path.  The oracle is a
    single sequential connection, so any admission limit admits it — the
    knobs stress the replicated accept/shed machinery under chaos without
    weakening the exactly-once check.

    The worst verdict label of the cluster's {!Lagmon}s lands in the
    outcome's [o_lag]. *)
