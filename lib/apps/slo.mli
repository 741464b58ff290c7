(** SLO reporter: tail latency through replica death.

    Runs a replicated {!Mongoose} under closed-loop ApacheBench load, injects
    a primary fail-stop, and splits per-request latency into pre-fault /
    failover-window / post-recovery phases — a preset of {!Scenario}, which
    takes the window's bounds from the pinned [failover.*] Evlog spans and
    classifies completions by exact time comparison against them. *)

open Ftsim_sim
open Ftsim_ftlinux

type report = {
  fail_at : Time.t;
  window : (Time.t * Time.t) option;
      (** failover window from the pinned spans; [None] if no failover *)
  span_bounds_ok : bool;
      (** span-derived bounds equal the first takeover's [halted] /
          [completed] times ({!Scenario.report}'s [bounds_ok]) *)
  pre : Metrics.Hist.t;  (** latency (ms) of completions before the window *)
  fo : Metrics.Hist.t;  (** completions inside the window (may be empty:
          the server is down for most of it) *)
  post : Metrics.Hist.t;  (** completions after the window *)
  completions : (Time.t * Time.t) list;
      (** every successful request as [(done_at, latency)], oldest first *)
  completed : int;
  errors : int;
  latency_w : Metrics.Whist.t;  (** the live windowed view of the same data *)
  lag_verdict : Lagmon.verdict option;
  lag_worst : Lagmon.verdict option;
}

val run :
  Engine.t ->
  ?config:Cluster.config ->
  ?concurrency:int ->
  ?page_bytes:int ->
  ?cpu_per_request:Time.t ->
  ?listen_shards:int ->
  ?admission:int ->
  ?warmup:Time.t ->
  ?fail_at:Time.t ->
  ?run_for:Time.t ->
  unit ->
  report
(** Boot the cluster ([config] defaults to {!Scenario.fast_failover}),
    warm up until [warmup] (default 200 ms), offer load with [concurrency]
    (default 16) workers, fail the primary at [fail_at] (default 600 ms),
    run until [run_for] (default 2.4 s), then classify.
    [listen_shards] / [admission] configure the server's accept-queue
    sharding and in-flight budget ({!Mongoose.params}).  Deterministic for
    a fixed engine seed. *)

val print_table : report -> unit
(** The phase-split p50/p90/p99/p999 table, window bounds first. *)
