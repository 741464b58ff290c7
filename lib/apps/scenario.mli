(** One scenario harness for every experiment.

    A scenario is a declarative value: the server (a replicated
    {!Cluster} or a plain kernel), the application it runs, the client
    load offered across the modelled 1 Gb/s link, the primary or backup
    kills, and how long to drive the engine.  {!run} builds it on an engine
    the caller supplies and owns everything in between: the link, the
    client host, the drive loop, the traffic and completion counters
    sampled after every step, and the pre-fault / failover / post-recovery
    phase split of per-request latency.

    Construction order is fixed, so a scenario is a pure function of the
    engine's seed: link, server, kills, [setup], client host, load start,
    steps, load stop, cluster shutdown, drain. *)

open Ftsim_sim
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux

val server_ip : string
(** ["10.0.0.1"], the server's address on the link. *)

val client_ip : string
(** ["10.0.0.9"], the client host's address. *)

val fast_failover : Cluster.config
(** {!Cluster.default_config} on [Topology.small] with 5 ms heart-beats,
    a 25 ms timeout, a 200 ms driver reload and the replication-health
    monitor on: one failover settles in a few hundred simulated
    milliseconds instead of the paper's ~5 s.  The SLO, chaos,
    re-protection and C10K runs start from it. *)

type server =
  | Replicated of Cluster.config
  | Plain of int option
      (** the application on an unmodified kernel with this many cores
          (default: half the machine, one FT-Linux partition's share) *)

type load =
  | No_client  (** compute workload: no link and no client host *)
  | Ab of { target : string; concurrency : int; start : Time.t option }
      (** closed-loop ApacheBench workers; [start = Some t] first runs the
          engine to [t] (even [t = 0], which fires the boot's time-0
          events first), [None] starts them before anything has run *)
  | Ol of {
      target : string;
      rate : float;
      conns : int;
      seed : int;
      start : Time.t;
    }
      (** open-loop Poisson arrivals, launched once the engine reaches
          [start] *)
  | Wget of string
      (** one download of this target on one connection, received bytes
          bucketed per second *)
  | Client of (Host.t -> unit)  (** custom client processes on the host *)

type step =
  | Until of Time.t  (** run to this simulated time *)
  | For of Time.t  (** run this much longer *)
  | Done of Time.t
      (** run in 100 ms slices until the scenario is finished, capped at
          this simulated time *)

type env = {
  cluster : Cluster.t option;  (** [None] on a plain server *)
  kernel : Kernel.t;  (** the serving kernel: the primary's or the plain one *)
  link : Link.t option;  (** [None] without a client *)
  ops : unit -> int;  (** requests completed so far ([Ab] and [Ol]) *)
}

type t = {
  server : server;
  app : Api.app;
  load : load;
  kills : (Replica_set.role * Time.t) list;
      (** {!Cluster.kill}s, armed in order right after the server is built
          (a plain server ignores them) *)
  steps : step list;
  finished : unit -> bool;
      (** the stop test of [Done] steps; defaults to the load's own end
          ([Wget] complete, every [Ol] connection done) *)
  drain : Time.t;
      (** run this much longer after the shutdown, so in-flight requests
          and timers settle (default 0) *)
  seeded_link : bool;
      (** draw the link's PRNG from the engine's instead of a fixed seed.
          Kept only so the SLO and chaos runs, which always did, stay
          byte-identical to their earlier traces (default false). *)
  setup : env -> unit;
      (** runs after the kills, before the client host exists: start
          co-located work, subscribe to transitions, arm fault schedules *)
}

val make :
  ?kills:(Replica_set.role * Time.t) list ->
  ?finished:(unit -> bool) ->
  ?drain:Time.t ->
  ?seeded_link:bool ->
  ?setup:(env -> unit) ->
  server ->
  Api.app ->
  load ->
  step list ->
  t

type mark = {
  at : Time.t;
  ops : int;  (** requests completed *)
  msgs : int;  (** inter-replica messages ({!Cluster.traffic_msgs}) *)
  bytes : int;
}
(** Cumulative counters sampled at the end of a step. *)

type client
(** The started load; see {!ab_stats}, {!ol} and {!wget}. *)

type report = {
  env : env;
  client : client;
  marks : mark list;  (** one per step, in order *)
  completions : (Time.t * Time.t) list;
      (** every successful [Ab]/[Ol] request as [(done_at, latency)],
          oldest first, drain included *)
  window : (Time.t * Time.t) option;
      (** failover window: begin of the pinned [failover.detect] span to
          end of the pinned [failover.golive] span; [None] without one *)
  bounds_ok : bool;
      (** the window's bounds equal the [halted] / [completed] times of the
          first of {!Cluster.takeovers}, whose spans the window was read
          from (no window and no takeover counts as equal) *)
  pre : Metrics.Hist.t;
      (** latency (ms) of completions before the window — all of them
          without a window *)
  fo : Metrics.Hist.t;  (** completions inside the window *)
  post : Metrics.Hist.t;  (** completions after it *)
}

val run : Engine.t -> t -> report

val run_to_completion :
  Engine.t ->
  ?kills:(Replica_set.role * Time.t) list ->
  server ->
  cap:Time.t ->
  (serving:bool -> Api.app) ->
  Time.t option * report
(** A compute workload with no client: [body ~serving api] runs on every
    replica, where [serving] is true on the copy that serves when the body
    starts (the primary's, or the plain kernel's).  The run ends once the
    copy serving {e when its body returns} has returned — after a takeover
    that is the promoted backup's — or at [cap], or when nothing is left to
    fire.  Returns when it returned. *)

val quantile : Metrics.Hist.t -> float -> float option
(** [None] for an empty phase: no completions is not a latency of 0. *)

val measured : report -> mark
(** Counters gained from the first step's mark to the last ([at] is the
    span): with steps [[Until warmup; Until stop]], the measurement
    window. *)

val ab_stats : report -> Loadgen.ab_stats
val ol : report -> Loadgen.ol
val wget : report -> Loadgen.wget
(** The started load; [Invalid_argument] if the scenario offered another. *)

val cluster : report -> Cluster.t
(** [Invalid_argument] on a plain server. *)
