(** Assembly of a complete FT-Linux machine, behind an explicit
    replica-lifecycle state machine.

    [create] partitions a machine, boots one kernel per partition, wires the
    shared-memory message layer, launches the application replicated in an
    FT-Namespace on every kernel, and starts heart-beat failure detection.
    [config.replicas] sets the group's size (paper §6's configurable number
    of replicas):

    - [2]: a primary and one backup.  When the primary partition fails
      (inject via {!inject} or {!kill}), the backup runs the full failover
      sequence: IPI-halt, log drain, replay completion, NIC driver reload,
      TCP stack reconstruction, switch to live execution.  From then on it
      holds the primary role (see {!takeover}).
    - [3]: a half-size primary and two quarter-size backups.  The log fans
      out to both through a {!Msglayer.group}; output commit waits for a
      quorum of one backup acknowledgement (a majority of the three
      replicas), so any released output survives any single failure.  A
      backup failure disables it in the group (the primary continues
      replicated to the other, and solo once both are gone).  A primary
      failure starts the same failover sequence on both backups, with an
      arbitration after the drain: they exchange received LSNs over a
      backup-to-backup mailbox, the longer log wins and a tie goes to the
      lower id.  The loser stands by, watching the winner with heartbeats
      on that mailbox: if the winner dies before going live and the
      standby's log is at least as long as the winner announced, the
      standby takes over; otherwise it halts and the set is [Outage].
      Once the winner is live the standby halts and leaves the members.
      Re-protection is not supported with two backups.

    The set moves through the {!Replica_set.lifecycle} states:

    {v Protected --replica death--> Degraded --regen start--> Regenerating
         ^                             ^   |                      |
         |                             |   +--- primary death --> Outage
         +------- epoch switch --------+--- target death (abort) -+ v}

    With [config.reprotect] on, a replica death leaves the survivor as a
    {e recording} primary journaling every append; after [regen_delay] the
    failed unit's hardware is recommissioned, a fresh kernel boots on it,
    replays the journal from LSN 0 (accelerated replay models the
    {!Ftsim_kernel.Memlayout}-guided snapshot transfer) while the primary
    keeps serving, and a consensus-coordinated epoch switch splices the
    new backup into the live stream — its first wire LSN is exactly the
    journal cutoff, and {!compare_digests} plus §3.5 output commit hold
    exactly as for an original backup.

    [create_standalone] builds the baseline: the same application on an
    unmodified kernel given the same resources as a single FT-Linux
    partition. *)

open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel
open Ftsim_netstack

type lifecycle = Replica_set.lifecycle =
  | Protected
  | Degraded
  | Regenerating
  | Outage

type config = {
  topology : Topology.spec;
  replicas : int;
      (** 2 (default: primary + backup) or 3 (primary + two backups,
          quorum-1 output commit).  Three replicas need a symmetric
          [split], no [reprotect], and a NUMA node count divisible by 4;
          {!create} rejects other shapes. *)
  split : [ `Symmetric | `Asymmetric of int ];
      (** [`Asymmetric n]: n-core primary, 1-core secondary (§4.3) *)
  kernel_config : Kernel.config;
  mailbox_config : Mailbox.config;
  hb_period : Time.t;
  hb_timeout : Time.t;
  output_commit : bool;
      (** §3.5 output commit (default true): outbound data segments and
          ACKs of client input both wait for the log to be stable on the
          backups; [false] releases both at once (Ablation B) *)
  det_shard : bool;
      (** per-object channels for deterministic sections (default true);
          [false] restores the namespace-global total order *)
  replay_workers : int;
      (** secondary replay-executor pool size (default 1 = the serial
          drain).  Above 1, records fan out to executors and only the
          per-channel × per-thread partial order serializes replay; most
          effective with [det_shard = true] *)
  driver_load_time : Time.t;
  batch : Msglayer.batch_config;
      (** sync-tuple streaming batch/ack-coalescing knobs; defaults to
          {!Msglayer.default_batch} (batching on).  Use
          {!Msglayer.unbatched} for the one-frame-per-record baseline. *)
  lagmon : Lagmon.config option;
      (** replication-health monitor sampling the append-vs-ack gap,
          per-channel cursors, replay queue depth and ack RTT (default
          [None]: no monitor).  Sampling is read-only and cannot perturb
          the deterministic replay order; see {!Lagmon}.  With
          re-protection, each epoch gets its own monitor ("lag" at epoch 0,
          "lag.e<n>" after); a monitor replaced by a planned epoch switch
          reports {!Lagmon.verdict} [Retired]. *)
  server_ip : string;
  app_env : (string * string) list;
      (** environment variables replicated into the FT-Namespace at launch *)
  reprotect : bool;
      (** live re-protection (default false): journal the record stream
          and regenerate a fresh backup online after a replica death,
          instead of running unprotected to the end of the run *)
  regen_delay : Time.t;
      (** dwell in [Degraded] before regeneration starts (and between
          retries after an aborted regeneration); default 100 ms *)
  regen_layout : Memlayout.t option;
      (** memory classification driving the snapshot budget: User bytes
          are copied at {!regen_bw} (gating the switch deadline), Delayed
          bytes transfer lazily, Ignored kernel state is reconstructed by
          the fresh boot plus journal replay.  [None] (default) models a
          freshly booted layout. *)
}

val regen_bw : int
(** Modelled snapshot-copy bandwidth of a regeneration, 2 GB/s: the epoch
    switch cannot complete before the classified User bytes have been
    copied at this rate. *)

val default_config : config
(** Paper testbed: 64-core/8-node machine split symmetrically, 0.55 µs
    mailbox, 10 ms heart-beats with 60 ms timeout, output commit on,
    4.95 s driver load, two replicas, re-protection off. *)

type t

val create :
  Engine.t -> ?config:config -> ?link:Link.endpoint -> app:Api.app -> unit -> t
(** Build the machine and start the replicated application.  [link] attaches
    the (single, shared) NIC to the given link endpoint; omit it for
    compute-only workloads.  Raises [Invalid_argument] on a [config] shape
    it cannot run (see [replicas]). *)

(** {1 Lifecycle}

    The replica set's state machine, epochs, and typed transition events. *)

val state : t -> lifecycle

val epoch : t -> int
(** 0 until the first completed re-protection; incremented at each epoch
    switch. *)

(** One primary takeover (§3.7): the backup that wins drains the log,
    reloads the NIC driver and goes live, and from then on {e is} the
    primary — in every mode, so {!primary_partition} and friends name it.
    An epoch holds at most one takeover. *)
type takeover = private {
  halted : Time.t option;
      (** when the primary partition halted unexpectedly (not by the
          failover sequence's own IPI); the ["failover.detect"] trace span
          and the measured recovery time both start here.  [None] for a
          detection without a halt (a false positive) *)
  started : Time.t option;
      (** when a backup declared the primary failed; [None] while only the
          halt has been seen *)
  completed : Time.t option;  (** when the winner went live *)
  winner : int option;  (** the backup slot that took over *)
  epoch : int;  (** the epoch the takeover happened in *)
}

val takeovers : t -> takeover list
(** Every takeover, newest first. *)

val failover_count : t -> int
(** Completed (or in-flight) primary takeovers: those [started]. *)

val failover_started_at : t -> Time.t option
val failover_completed_at : t -> Time.t option
(** [started] / [completed] of the newest takeover. *)

type transition = {
  tr_at : Time.t;
  tr_from : lifecycle;
  tr_to : lifecycle;
  tr_epoch : int;  (** epoch in force once the transition lands *)
}

val transitions : t -> transition list
(** Lifecycle transitions in time order (also emitted on {!Evlog} as
    ["ft.cluster"/"lifecycle"] instants). *)

val on_transition : t -> (transition -> unit) -> unit
(** Subscribe to lifecycle transitions (called synchronously, in
    subscription order, from the transition point — keep it non-blocking). *)

val reprotect : t -> unit
(** Start regenerating the dead replica now (no-op unless the set is
    [Degraded] and [config.reprotect] is on).  An automatic regeneration
    is scheduled [regen_delay] after every replica death anyway; this
    forces it early. *)

val inject :
  t ->
  target:Replica_set.target ->
  at:Time.t ->
  disrupts:bool ->
  Fault.kind ->
  unit
(** Schedule a fault of this kind on the partition [target] names {e when
    it fires} (roles move at every takeover and epoch switch); [disrupts]
    also disrupts mailbox coherency.  A target already halted absorbs the
    fault. *)

val kill : t -> role:Replica_set.role -> at:Time.t -> unit
(** {!inject}'s fail-stop, non-disrupting case, aimed at a role: [Backup]
    names the first backup still up when the fault fires. *)

val members : t -> Replica_set.member list
(** The primary, then each backup slot (dead ones included until replaced;
    an arbitration loser that stood down is not listed). *)

val all_halted : t -> bool
(** Every member's partition is halted — the outage test chaos judges
    use. *)

val switch_cutoff : t -> int option
(** Journal length at the last epoch switch — the spliced backup's base
    LSN.  [None] before the first switch. *)

val backup_first_lsn : t -> int option
(** First LSN the current backup consumed off the wire.  After an epoch
    switch the invariant [backup_first_lsn = switch_cutoff] is the
    gapless-handoff check. *)

(** {1 Topology accessors}

    [primary_*] name the partition currently holding the primary role
    (roles swap at every takeover); [secondary_*] name backup slot 0,
    which after a takeover by backup 0 holds the dead primary. *)

val machine : t -> Machine.t
val primary_partition : t -> Partition.t
val secondary_partition : t -> Partition.t
val backup_partition : t -> int -> Partition.t
(** [int] is the backup index (0, or 0 and 1 with three replicas). *)

val primary_kernel : t -> Kernel.t
val secondary_kernel : t -> Kernel.t
val primary_namespace : t -> Namespace.t
val secondary_namespace : t -> Namespace.t

val backup_received_lsn : t -> int -> int
(** Contiguous received-LSN watermark of the given backup's log. *)

val lagmon : t -> Lagmon.t option
(** Backup 0's current-epoch replication-health monitor, when
    [config.lagmon] enabled one. *)

val lagmons : t -> (string * Lagmon.t) list
(** Every monitor in creation order: ["lag"], ["lag.e1"], … per epoch with
    one backup (monitors of replaced epochs report {!Lagmon.verdict}
    [Retired]); ["lag.b0"], ["lag.b1"] with two. *)

val shutdown : t -> unit
(** Stop heart-beat timers and health monitors so an idle simulation can
    drain. *)

(** {1 Traffic and replication metrics}

    Cumulative across epochs (each epoch switch banks the replaced message
    layer pair's counters). *)

val traffic_msgs : t -> int
val traffic_bytes : t -> int
val det_ops : t -> int
val records_sent : t -> int

(** {1 Divergence checking}

    Every replica carries a {!Digest} recorder from launch; pairs replaced
    by a replica death are kept (bounded, on a failover, at the survivor's
    replay point — everything beyond it died unreplicated with the
    primary) and compared alongside the live pairs, one per backup. *)

val compare_digests : t -> Digest.divergence option
(** [None] means every epoch's digest pair agrees over its comparable
    prefix. *)

val replay_divergence : t -> string option
(** First structural replay divergence any replica (current or replaced)
    observed, if any. *)

(** {1 Baseline} *)

val create_standalone :
  Engine.t ->
  ?topology:Topology.spec ->
  ?cores:int ->
  ?server_ip:string ->
  ?link:Link.endpoint ->
  app:Api.app ->
  unit ->
  Kernel.t
(** One partition with [cores] cores (default: half the machine, matching
    one FT-Linux partition) running the application directly; returns its
    kernel. *)
