(** The command-line flags [ftsim] and [bench] share, each declared once.

    A knob of the replicated system is one flag here, mapped onto one
    {!Ftsim_ftlinux.Cluster.config} field by {!config}; adding a knob
    touches this module only.  Flag defaults are read from the base
    configuration a command passes, so a command with different defaults
    (e.g. [ftsim slo]'s 200 ms driver reload) still declares nothing. *)

open Cmdliner
open Ftsim_sim
open Ftsim_ftlinux

(** {1 Cluster knobs} *)

type knob =
  [ `Batch  (** [--batch-window USEC], [--batch-bytes BYTES] *)
  | `Det_shard  (** [--det-shard on|off] *)
  | `Replay_workers  (** [--replay-workers N], N >= 1 *)
  | `Lagmon  (** [--lagmon on|quiet|off] *)
  | `Reprotect  (** [--reprotect on|off] *)
  | `Regen_delay  (** [--regen-delay MS] *)
  | `Driver_ms  (** [--driver-ms MS] *) ]

val config : ?base:Cluster.config -> knob list -> Cluster.config Term.t
(** [base] (default {!Cluster.default_config}) with the listed knobs'
    flags applied; each flag defaults to [base]'s value.  [--batch-window 0]
    selects {!Msglayer.unbatched}. *)

(** {1 Serving-path knobs} *)

val listen_shards : int Term.t
(** [--listen-shards N] (default 1). *)

val admission : int option Term.t
(** [--admission off|on|N]: [on] is the default in-flight budget, 64. *)

val arrival_rate : float option Term.t
(** [--arrival-rate R]: open-loop arrivals per second. *)

(** {1 Run flags} *)

val seed : int Term.t
(** [--seed N] (default 42). *)

val jobs : int Term.t
(** [--jobs N]: chaos-campaign worker domains, [0] (default) picks
    {!Chaos.default_jobs}. *)

val trace_out : string option Term.t
(** [--trace-out PATH]. *)

val write_trace : Evlog.t -> string -> unit
(** Chrome trace_event JSON, or JSONL if the path ends in [.jsonl]; a write
    error is reported on stderr. *)

type log

val log : log Term.t
(** [--log-level LEVEL], [--log-filter SPEC]. *)

val setup_logging : log -> unit

type run = {
  seed : int;
  log : log;
  trace_out : string option;
  trace_detail : bool;  (** [--trace-detail] *)
  metrics_json : string option;  (** [--metrics-json PATH] *)
  stats_interval : int option;  (** [--stats-interval MS] *)
}

val run : run Term.t
(** The seed, trace, log, metrics and stats flags of one engine-backed
    command. *)

val stats_interval : int option Term.t

val engine : run -> Engine.t
(** Set up logging, then create the seeded engine with the requested trace
    detail and stats printer. *)

val dump : run -> Engine.t -> unit
(** Write the metrics registry, then the trace, where requested. *)
