open Cmdliner
open Ftsim_sim
open Ftsim_ftlinux

let prog () = Filename.remove_extension (Filename.basename Sys.executable_name)

let bounded_int ~min what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg = bounded_int ~min:0 "a non-negative integer"
let positive = bounded_int ~min:1 "an integer >= 1"
let on_off = Arg.enum [ ("on", true); ("off", false) ]
let ms t = t / Time.ms 1

(* {1 Cluster knobs} *)

type knob =
  [ `Batch
  | `Det_shard
  | `Replay_workers
  | `Lagmon
  | `Reprotect
  | `Regen_delay
  | `Driver_ms ]

(* Sync-tuple batching: [--batch-window 0] disables batching outright (one
   frame per record, the pre-batching behaviour). *)
let batch_of base window_us bytes =
  match (window_us, bytes) with
  | None, None -> base
  | Some 0, _ -> Msglayer.unbatched
  | _ ->
      let b =
        match window_us with
        | Some us -> { base with Msglayer.batch_window = Time.us us }
        | None -> base
      in
      (match bytes with Some n -> { b with Msglayer.batch_bytes = n } | None -> b)

let batch =
  let window =
    Arg.(
      value & opt (some nonneg) None
      & info [ "batch-window" ] ~docv:"USEC"
          ~doc:
            "Maximum time a staged sync-tuple batch may wait before its frame \
             is flushed.  $(docv) of 0 disables batching entirely.")
  and bytes =
    Arg.(
      value & opt (some nonneg) None
      & info [ "batch-bytes" ] ~docv:"BYTES"
          ~doc:"Flush a staged batch frame once it reaches $(docv) bytes.")
  in
  Term.(
    const (fun w b c -> { c with Cluster.batch = batch_of c.Cluster.batch w b })
    $ window $ bytes)

let lagmon_of = function
  | `On -> Some Lagmon.default_config
  | `Quiet -> Some { Lagmon.default_config with Lagmon.quiet = true }
  | `Off -> None

(* Each knob is one flag whose default is [base]'s value, as a function
   applying the flag to a configuration. *)
let knob (base : Cluster.config) :
    knob -> (Cluster.config -> Cluster.config) Term.t = function
  | `Batch -> batch
  | `Det_shard ->
      Term.(
        const (fun det_shard c -> { c with Cluster.det_shard })
        $ Arg.(
            value & opt on_off base.det_shard
            & info [ "det-shard" ] ~docv:"on|off"
                ~doc:
                  "Per-object channels for deterministic sections (the \
                   sharded replication core).  $(b,off) restores the \
                   namespace-global mutex and total sync-tuple order."))
  | `Replay_workers ->
      Term.(
        const (fun replay_workers c -> { c with Cluster.replay_workers })
        $ Arg.(
            value & opt positive base.replay_workers
            & info [ "replay-workers" ] ~docv:"N"
                ~doc:
                  "Backup replay-executor pool size.  $(b,1) keeps the \
                   serial replay drain; above 1, records fan out to N \
                   executors and only the per-channel x per-thread partial \
                   order serializes replay (most effective with \
                   $(b,--det-shard on))."))
  | `Lagmon ->
      let default =
        match base.lagmon with
        | None -> `Off
        | Some l when l.Lagmon.quiet -> `Quiet
        | Some _ -> `On
      in
      Term.(
        const (fun l c -> { c with Cluster.lagmon = lagmon_of l })
        $ Arg.(
            value
            & opt (enum [ ("on", `On); ("quiet", `Quiet); ("off", `Off) ]) default
            & info [ "lagmon" ] ~docv:"on|quiet|off"
                ~doc:
                  "Replication-health monitor: sample the primary's append \
                   LSN vs the backup's ack watermark (overall and per Det \
                   channel), replay queue depth and ack RTT, publishing \
                   lag.* gauges and a health verdict.  $(b,quiet) keeps the \
                   gauges but suppresses Evlog emission (same-seed traces \
                   stay byte-identical to $(b,off)); sampling never perturbs \
                   the deterministic replay order."))
  | `Reprotect ->
      Term.(
        const (fun reprotect c -> { c with Cluster.reprotect })
        $ Arg.(
            value & opt on_off base.reprotect
            & info [ "reprotect" ] ~docv:"on|off"
                ~doc:
                  "Live re-protection: after a replica death the survivor \
                   keeps serving while journaling the record stream, the \
                   failed partition is recommissioned, a fresh backup boots \
                   and replays online, and a consensus-coordinated epoch \
                   switch splices it into the live stream — restoring \
                   $(b,Protected) instead of running unprotected to the end \
                   of the run."))
  | `Regen_delay ->
      Term.(
        const (fun d c -> { c with Cluster.regen_delay = Time.ms d })
        $ Arg.(
            value & opt nonneg (ms base.regen_delay)
            & info [ "regen-delay" ] ~docv:"MS"
                ~doc:
                  "Dwell in $(b,Degraded) before regeneration starts, and \
                   between retries after an aborted regeneration (only \
                   meaningful with $(b,--reprotect on))."))
  | `Driver_ms ->
      Term.(
        const (fun d c -> { c with Cluster.driver_load_time = Time.ms d })
        $ Arg.(
            value & opt nonneg (ms base.driver_load_time)
            & info [ "driver-ms" ] ~docv:"MS"
                ~doc:"NIC driver reload time at failover."))

let config ?(base = Cluster.default_config) knobs =
  List.fold_left
    (fun acc k -> Term.(const (fun f c -> f c) $ knob base k $ acc))
    (Term.const base) knobs

(* {1 Serving-path knobs} *)

let listen_shards =
  Arg.(
    value & opt positive 1
    & info [ "listen-shards" ] ~docv:"N"
        ~doc:
          "Accept-queue shards (SO_REUSEPORT-style listener group): incoming \
           connections are SYN-hash-routed by 4-tuple to one of $(docv) \
           per-shard accept queues, each drained by its own acceptor thread. \
           $(b,1) (default) is the classic single listener, byte-identical \
           to the pre-sharding path.")

let default_admission_limit = 64

(* --admission off | on | <limit>: "on" picks the default in-flight budget,
   an integer sets it explicitly. *)
let admission_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "off" -> Ok None
    | "on" -> Ok (Some default_admission_limit)
    | _ -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok (Some n)
        | _ ->
            Error
              (`Msg
                 (Printf.sprintf
                    "expected off, on, or a positive in-flight limit, got %S" s))
        )
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "off"
    | Some n -> Format.pp_print_int ppf n
  in
  Arg.conv (parse, print)

let admission =
  Arg.(
    value & opt admission_conv None
    & info [ "admission" ] ~docv:"off|on|N"
        ~doc:
          (Printf.sprintf
             "Admission control on the server's request path: at most $(docv) \
              units of work in flight, the rest answered with an explicit \
              load-shed response (HTTP 503 / BUSY).  $(b,on) uses the default \
              budget of %d.  Decisions ride the replicated lock order, so \
              primary and backup shed identically."
             default_admission_limit))

let arrival_rate =
  Arg.(
    value & opt (some float) None
    & info [ "arrival-rate" ] ~docv:"R"
        ~doc:
          "Drive the client open-loop at $(docv) connection arrivals per \
           second (clock-driven, decoupled from completions) instead of the \
           closed-loop default — the C10K regime where a slow server faces \
           undiminished offered load.")

(* {1 Run flags} *)

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")

let jobs =
  Arg.(
    value & opt nonneg 0
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains chaos campaigns fan schedules out across ($(b,0) = \
           auto: all cores but one).  The merged report is byte-identical \
           for every $(docv); only wall-clock changes.")

let trace_out =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"PATH"
        ~doc:
          "Write the structured event trace to $(docv) after the run: Chrome \
           trace_event JSON (opens in Perfetto) by default, JSONL if the path \
           ends in .jsonl.")

let write_trace ev path =
  let format = if Filename.check_suffix path ".jsonl" then `Jsonl else `Chrome in
  try Evlog.write_file ev ~format path
  with Sys_error msg ->
    Printf.eprintf "%s: cannot write trace: %s\n" (prog ()) msg

type log = { level : string option; filter : string option }

let log =
  let level =
    Arg.(
      value & opt (some string) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Print log events at or above $(docv) (error, warn, info, debug) \
             to stderr.")
  and filter =
    Arg.(
      value & opt (some string) None
      & info [ "log-filter" ] ~docv:"SPEC"
          ~doc:
            "Per-component level overrides, e.g. \
             $(b,ft.cluster=debug,net.tcp=info).  Implies the stderr sink \
             for those components.")
  in
  Term.(const (fun level filter -> { level; filter }) $ level $ filter)

let setup_logging { level; filter } =
  let unknown s =
    Printf.eprintf "%s: unknown log level %S ignored\n" (prog ()) s
  in
  Trace.reset_levels ();
  Option.iter
    (fun s ->
      match Trace.level_of_string s with
      | Some l ->
          Trace.set_level l;
          Trace.set_stderr true
      | None -> unknown s)
    level;
  Option.iter
    (fun spec ->
      List.iter
        (fun item ->
          if item <> "" then
            match String.index_opt item '=' with
            | Some i -> (
                let comp = String.sub item 0 i in
                let lvl = String.sub item (i + 1) (String.length item - i - 1) in
                match Trace.level_of_string lvl with
                | Some l ->
                    Trace.set_level ~component:comp l;
                    Trace.set_stderr true
                | None -> unknown lvl)
            | None ->
                Printf.eprintf
                  "%s: malformed --log-filter item %S (want comp=level)\n"
                  (prog ()) item)
        (String.split_on_char ',' spec))
    filter

type run = {
  seed : int;
  log : log;
  trace_out : string option;
  trace_detail : bool;
  metrics_json : string option;
  stats_interval : int option;
}

let stats_interval =
  Arg.(
    value & opt (some positive) None
    & info [ "stats-interval" ] ~docv:"MS"
        ~doc:
          "Print a one-line metric snapshot (lag, msglayer, replay, det \
           instruments) to stderr every $(docv) of simulated time.")

let run =
  let trace_detail =
    Arg.(
      value & flag
      & info [ "trace-detail" ]
          ~doc:
            "Also record high-volume events (per-park, per-timer, \
             per-segment, per-futex-wake); grows traces by orders of \
             magnitude.")
  and metrics_json =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-json" ] ~docv:"PATH"
          ~doc:
            "Write the cross-stack metrics registry (engine, mailbox, TCP, \
             message layer, cluster) as JSON to $(docv) after the run.")
  in
  Term.(
    const (fun seed log trace_out trace_detail metrics_json stats_interval ->
        { seed; log; trace_out; trace_detail; metrics_json; stats_interval })
    $ seed $ log $ trace_out $ trace_detail $ metrics_json $ stats_interval)

let engine r =
  setup_logging r.log;
  let eng = Engine.create ~seed:r.seed () in
  if r.trace_detail then Evlog.set_detail (Engine.evlog eng) true;
  Option.iter
    (fun ms -> ignore (Statsdump.arm eng ~every:(Time.ms ms)))
    r.stats_interval;
  eng

let dump r eng =
  Option.iter
    (fun path ->
      try
        let oc = open_out path in
        output_string oc (Metrics.Registry.to_json (Engine.metrics eng));
        close_out oc
      with Sys_error msg ->
        Printf.eprintf "%s: cannot write metrics: %s\n" (prog ()) msg)
    r.metrics_json;
  Option.iter (write_trace (Engine.evlog eng)) r.trace_out
