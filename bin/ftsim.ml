(* ftsim: run FT-Linux simulation scenarios ad hoc from the command line.

   Subcommands mirror the paper's workloads; every knob of the model
   (partitioning, block sizes, CPU loads, failure time, driver reload) is a
   flag.  Shared flags are declared in Ftsim_cli.Cli; each subcommand builds
   an Apps.Scenario and prints its view of the report.
   `dune exec bin/ftsim.exe -- --help` lists everything. *)

open Cmdliner
open Ftsim_sim
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux
open Ftsim_apps
module Cli = Ftsim_cli.Cli

let mib n = n * 1024 * 1024

(* Every subcommand's monitor defaults to on. *)
let base = { Cluster.default_config with lagmon = Some Lagmon.default_config }

let replicated_t =
  Arg.(
    value & opt bool true
    & info [ "replicated" ] ~docv:"BOOL"
        ~doc:"Run under FT-Linux replication (false = plain kernel).")

(* A subcommand's own parameters: defaults and docs differ per subcommand. *)
let int_t name ~default ~docv ~doc =
  Arg.(value & opt int default & info [ name ] ~docv ~doc)

let int_opt_t ?default name ~docv ~doc =
  Arg.(value & opt (some int) default & info [ name ] ~docv ~doc)

let fail_at_t ?default doc = int_opt_t ?default "fail-at-ms" ~docv:"MS" ~doc

let kill_primary = function
  | Some ms -> [ (Replica_set.Primary, Time.ms ms) ]
  | None -> []

let print_health name = function
  | None -> ()
  | Some lm ->
      Printf.printf "replication health (%s): %s (worst %s over %d samples)\n"
        name
        (Lagmon.verdict_label (Lagmon.verdict lm))
        (Lagmon.verdict_label (Lagmon.worst lm))
        (Lagmon.samples lm)

(* Every monitor, oldest first: "lag", then "lag.e1", ... — monitors of
   epochs replaced by a planned switch report the Retired verdict; with two
   backups, "lag.b0" and "lag.b1". *)
let print_cluster_health c =
  List.iter (fun (name, lm) -> print_health name (Some lm)) (Cluster.lagmons c)

let print_lifecycle c =
  let n = Cluster.failover_count c in
  Printf.printf "lifecycle: %s (epoch %d, %d takeover%s, %d transitions)\n"
    (Replica_set.lifecycle_label (Cluster.state c))
    (Cluster.epoch c) n
    (if n = 1 then "" else "s")
    (List.length (Cluster.transitions c))

(* {1 pbzip2} *)

let pbzip2_cmd =
  let run r replicated fail_at block_kb file_mb workers config =
    let eng = Cli.engine r in
    let params =
      {
        Pbzip2.default_params with
        Pbzip2.file_bytes = mib file_mb;
        block_bytes = block_kb * 1024;
        workers;
      }
    in
    let cap = Time.sec 600 in
    let t_done, res =
      Scenario.run_to_completion eng ~kills:(kill_primary fail_at)
        (if replicated then Replicated config else Plain None)
        ~cap
        (fun ~serving:_ api -> Pbzip2.run ~params api)
    in
    Cli.dump r eng;
    match t_done with
    | Some t ->
        let blocks = Pbzip2.block_count params in
        Printf.printf "compressed %d blocks (%d MiB) in %s: %.0f blocks/s\n"
          blocks file_mb (Time.to_string t)
          (float_of_int blocks /. Time.to_sec_f t);
        Option.iter
          (fun c ->
            Printf.printf "inter-replica: %d msgs, %.2f MB, %d det sections\n"
              (Cluster.traffic_msgs c)
              (float_of_int (Cluster.traffic_bytes c) /. 1e6)
              (Cluster.det_ops c);
            if config.Cluster.reprotect then print_lifecycle c;
            print_cluster_health c)
          res.env.cluster
    | None when Engine.now eng < cap ->
        Printf.printf "did not finish: nothing left to run at %s\n"
          (Time.to_string (Engine.now eng))
    | None -> Printf.printf "did not finish within the simulation cap\n"
  in
  Cmd.v
    (Cmd.info "pbzip2" ~doc:"Parallel compression workload (paper §4.1).")
    Term.(
      const run $ Cli.run $ replicated_t
      $ fail_at_t "Fail-stop the primary partition at this simulated time."
      $ int_t "block-kb" ~default:100 ~docv:"KB" ~doc:"Block size."
      $ int_t "file-mb" ~default:128 ~docv:"MB" ~doc:"Input size."
      $ int_t "workers" ~default:32 ~docv:"N" ~doc:"Worker threads."
      $ Cli.config ~base
          [ `Batch; `Det_shard; `Replay_workers; `Lagmon; `Reprotect;
            `Regen_delay ])

(* {1 mongoose} *)

let mongoose_cmd =
  let run r replicated cpu_us concurrency seconds listen_shards admission
      arrival_rate config =
    let eng = Cli.engine r in
    let app =
      Mongoose.run
        ~params:
          {
            Mongoose.default_params with
            Mongoose.cpu_per_request = Time.us cpu_us;
            listen_shards;
            admission;
          }
    in
    let server = if replicated then Scenario.Replicated config else Plain None in
    let warmup = Time.ms 400 in
    let res =
      match arrival_rate with
      | None ->
          let res =
            Scenario.run eng
              (Scenario.make server app
                 (Ab { target = "/page"; concurrency; start = None })
                 [ Until warmup; Until (warmup + Time.sec seconds) ])
          in
          Cli.dump r eng;
          let st = Scenario.ab_stats res in
          let d = Scenario.measured res in
          Printf.printf
            "%.0f req/s over %ds (concurrency %d, CPU loop %dus); p50 %.2fms \
             p99 %.2fms\n"
            (float_of_int d.ops /. float_of_int seconds)
            seconds concurrency cpu_us
            (1000. *. Metrics.Hist.quantile st.Loadgen.latency 0.5)
            (1000. *. Metrics.Hist.quantile st.Loadgen.latency 0.99);
          res
      | Some rate ->
          let conns = int_of_float (rate *. float_of_int seconds) in
          let res =
            Scenario.run eng
              (Scenario.make server app
                 (Ol
                    { target = "/page"; rate; conns; seed = r.Cli.seed;
                      start = warmup })
                 [ Until (warmup + Time.sec (seconds + 30)) ])
          in
          Cli.dump r eng;
          let ol = Scenario.ol res in
          let st = Loadgen.ol_stats ol in
          let cum = Metrics.Whist.cumulative st.Loadgen.ol_latency_w in
          Printf.printf
            "open loop: %d arrivals at %.0f/s (peak %d concurrent): %d ok, %d \
             shed, %d errors; p50 %.2fms p99 %.2fms p999 %.2fms\n"
            (Loadgen.ol_launched ol) rate (Loadgen.ol_peak ol)
            (Metrics.Counter.value st.Loadgen.ol_ok)
            (Metrics.Counter.value st.Loadgen.ol_shed)
            (Metrics.Counter.value st.Loadgen.ol_errors)
            (Metrics.Hist.quantile cum 0.5)
            (Metrics.Hist.quantile cum 0.99)
            (Metrics.Hist.quantile cum 0.999);
          res
    in
    Option.iter (fun c -> print_health "lag" (Cluster.lagmon c)) res.env.cluster
  in
  Cmd.v
    (Cmd.info "mongoose" ~doc:"Web server under ApacheBench load (paper §4.2).")
    Term.(
      const run $ Cli.run $ replicated_t
      $ int_t "cpu-us" ~default:0 ~docv:"US" ~doc:"Per-request CPU loop."
      $ int_t "concurrency" ~default:100 ~docv:"N"
          ~doc:"Parallel client connections."
      $ int_t "seconds" ~default:2 ~docv:"S" ~doc:"Measured window."
      $ Cli.listen_shards $ Cli.admission $ Cli.arrival_rate
      $ Cli.config ~base [ `Batch; `Det_shard; `Replay_workers; `Lagmon ])

(* {1 failover / fileserver / timeline}

   One scenario, three views: [failover] prints the paper's Fig. 8 anatomy
   (throughput over time, outage length), [fileserver] is the same workload
   with the failure optional, and [timeline] reads the per-phase failover
   breakdown back out of the event trace. *)

let run_transfer r config ~file_mb ~fail_at ~listen_shards ~admission =
  let eng = Cli.engine r in
  let app =
    Fileserver.run
      ~params:
        {
          Fileserver.default_params with
          Fileserver.file_bytes = mib file_mb;
          listen_shards;
          admission;
        }
  in
  let res =
    Scenario.run eng
      (Scenario.make ~kills:(kill_primary fail_at) (Replicated config) app
         (Wget "/file")
         [ Done (Time.sec 300) ])
  in
  Cli.dump r eng;
  (eng, Scenario.cluster res, Scenario.wget res)

let print_outage cluster =
  match
    (Cluster.failover_started_at cluster, Cluster.failover_completed_at cluster)
  with
  | Some a, Some b ->
      Printf.printf "failover outage: %s\n" (Time.to_string (b - a))
  | _ -> Printf.printf "no failover\n"

let print_download w ~file_mb =
  match Ivar.peek w.Loadgen.total with
  | Some n ->
      Printf.printf "downloaded %d/%d bytes (%s)\n" n (mib file_mb)
        (if n = mib file_mb then "complete" else "INCOMPLETE")
  | None -> Printf.printf "download incomplete at cap\n"

let file_mb_t = int_t "file-mb" ~default:512 ~docv:"MB" ~doc:"File size."

let transfer_knobs =
  [ `Driver_ms; `Batch; `Det_shard; `Replay_workers; `Lagmon; `Reprotect;
    `Regen_delay ]

let failover_cmd =
  let run r file_mb fail_at listen_shards admission config =
    let _, cluster, w =
      run_transfer r config ~file_mb ~fail_at ~listen_shards ~admission
    in
    Printf.printf "t(s)  MB/s\n";
    List.iter
      (fun (t, r) -> Printf.printf "%-5.0f %8.1f\n" t (r /. 1e6))
      (Metrics.Series.rate_per_sec w.Loadgen.bytes_received);
    print_outage cluster;
    print_download w ~file_mb;
    if config.Cluster.reprotect then print_lifecycle cluster;
    print_cluster_health cluster
  in
  Cmd.v
    (Cmd.info "failover"
       ~doc:"Large transfer with a mid-stream primary failure (paper §4.4).")
    Term.(
      const run $ Cli.run $ file_mb_t
      $ fail_at_t ~default:2000 "Primary failure time."
      $ Cli.listen_shards $ Cli.admission $ Cli.config ~base transfer_knobs)

let fileserver_cmd =
  let run r file_mb fail_at listen_shards admission config =
    let _, cluster, w =
      run_transfer r config ~file_mb ~fail_at ~listen_shards ~admission
    in
    print_download w ~file_mb;
    if fail_at <> None then print_outage cluster;
    if config.Cluster.reprotect then print_lifecycle cluster;
    print_cluster_health cluster
  in
  Cmd.v
    (Cmd.info "fileserver"
       ~doc:
         "Replicated file server under a large download, with an optional \
          mid-stream primary failure.")
    Term.(
      const run $ Cli.run $ file_mb_t
      $ fail_at_t "Fail-stop the primary partition at this simulated time."
      $ Cli.listen_shards $ Cli.admission $ Cli.config ~base transfer_knobs)

let timeline_cmd =
  let run r file_mb fail_at config =
    let eng, cluster, _w =
      run_transfer r config ~file_mb ~fail_at ~listen_shards:1 ~admission:None
    in
    let fail_at_ms = Option.get fail_at in
    let evs = Evlog.events (Engine.evlog eng) in
    let ms t = float_of_int t /. 1e6 in
    let phases =
      [
        ("detect", "failover.detect");
        ("drain/replay", "failover.drain_replay");
        ("driver reload", "failover.driver_reload");
        ("go-live", "failover.golive");
      ]
    in
    Printf.printf "failover timeline (seed %d, fail at %d ms):\n" r.Cli.seed
      fail_at_ms;
    Printf.printf "  %-14s %12s %12s %12s\n" "phase" "start(ms)" "end(ms)"
      "dur(ms)";
    let sum = ref 0 in
    let missing = ref false in
    List.iter
      (fun (label, name) ->
        match Evlog.Query.span_of ~comp:"ft.cluster" ~name evs with
        | Some (t0, t1) ->
            sum := !sum + (t1 - t0);
            Printf.printf "  %-14s %12.3f %12.3f %12.3f\n" label (ms t0)
              (ms t1) (ms (t1 - t0))
        | None ->
            missing := true;
            Printf.printf "  %-14s %12s %12s %12s\n" label "-" "-" "-")
      phases;
    if !missing then begin
      Printf.printf "no failover: phase spans missing\n";
      if Cluster.failover_count cluster > 0 then exit 1
    end
    else begin
      Printf.printf "  %-14s %38.3f\n" "sum of phases" (ms !sum);
      (* [span_of] read the first pair of spans: the first takeover's. *)
      match List.rev (Cluster.takeovers cluster) with
      | { halted = Some halt; completed = Some live; _ } :: _ ->
          Printf.printf "  %-14s %38.3f   (halt %.3f -> live %.3f)\n"
            "measured" (ms (live - halt)) (ms halt) (ms live);
          if abs (live - halt - !sum) > Time.ms 1 then begin
            Printf.printf
              "WARNING: phases do not sum to the measured recovery time\n";
            exit 1
          end
      | _ ->
          Printf.printf "  measured recovery unavailable\n";
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Run the failover scenario and print the per-phase recovery \
          breakdown (Fig. 8 anatomy) from the event trace.")
    Term.(
      const run $ Cli.run $ file_mb_t
      $ fail_at_t ~default:2000 "Primary failure time."
      $ Cli.config ~base
          [ `Driver_ms; `Batch; `Det_shard; `Replay_workers; `Lagmon ])

(* {1 triple} *)

let echo_app (api : Api.t) =
  let l = api.Api.net.listen ~port:80 in
  let rec serve () =
    match api.Api.net.accept l with
    | Error _ -> ()
    | Ok s ->
        let rec echo () =
          match api.Api.net.recv s ~max:4096 with
          | Error _ -> api.Api.net.close s
          | Ok cs ->
              List.iter (fun c -> ignore (api.Api.net.send s c)) cs;
              echo ()
        in
        echo ();
        serve ()
  in
  serve ()

let triple_cmd =
  let run r kill_backup_ms kill_primary_ms config =
    let eng = Cli.engine r in
    let messages = List.init 40 (fun i -> Printf.sprintf "m%02d|" i) in
    let result = Ivar.create () in
    let client host =
      ignore
        (Host.spawn host "client" (fun () ->
             let c =
               Tcp.connect (Host.stack host) ~host:Scenario.server_ip ~port:80
             in
             let out = Buffer.create 64 in
             List.iter
               (fun m ->
                 Tcp.send c (Payload.of_string m);
                 let want = String.length m in
                 let got = ref 0 in
                 while !got < want do
                   match Tcp.recv c ~max:4096 with
                   | [] -> failwith "eof"
                   | cs ->
                       got := !got + Payload.total_len cs;
                       Buffer.add_string out (Payload.concat_to_string cs)
                 done;
                 Engine.sleep (Time.ms 5))
               messages;
             Ivar.fill result (Buffer.contents out)))
    in
    let kills =
      List.filter_map
        (fun (role, ms) -> Option.map (fun ms -> (role, Time.ms ms)) ms)
        [ (Replica_set.Backup, kill_backup_ms); (Primary, kill_primary_ms) ]
    in
    let res =
      Scenario.run eng
        (Scenario.make ~kills
           ~finished:(fun () -> Ivar.is_filled result)
           (Replicated config) echo_app (Client client) [ Done (Time.sec 60) ])
    in
    let t = Scenario.cluster res in
    Cli.dump r eng;
    Printf.printf "backups' received LSN: %d / %d\n"
      (Cluster.backup_received_lsn t 0)
      (Cluster.backup_received_lsn t 1);
    (match Cluster.takeovers t with
    | { winner = Some w; _ } :: _ ->
        Printf.printf "takeover winner: backup %d\n" w
    | _ -> Printf.printf "no failover occurred\n");
    print_lifecycle t;
    print_cluster_health t;
    match Ivar.peek result with
    | Some s when s = String.concat "" messages ->
        Printf.printf "client stream: complete, exactly once (%d messages)\n"
          (List.length messages)
    | Some s -> Printf.printf "client stream: CORRUPTED (%d bytes)\n" (String.length s)
    | None -> Printf.printf "client stream: incomplete\n"
  in
  Cmd.v
    (Cmd.info "triple"
       ~doc:"Three-replica echo service with optional injected failures (paper 6).")
    Term.(
      const run $ Cli.run
      $ int_opt_t "fail-backup-ms" ~docv:"MS"
          ~doc:"Fail-stop the first live backup (backup 0)."
      $ int_opt_t "fail-primary-ms" ~docv:"MS" ~doc:"Fail-stop the primary."
      $ Cli.config
          ~base:{ base with Cluster.replicas = 3 }
          [ `Driver_ms; `Det_shard; `Replay_workers; `Lagmon ])

(* {1 slo} *)

let slo_cmd =
  let run r concurrency page_kb cpu_us listen_shards admission warmup_ms
      fail_at_ms run_for_ms config =
    let eng = Cli.engine r in
    let res =
      Slo.run eng ~config ~concurrency ~page_bytes:(page_kb * 1024)
        ~cpu_per_request:(Time.us cpu_us) ~listen_shards ?admission
        ~warmup:(Time.ms warmup_ms) ~fail_at:(Time.ms fail_at_ms)
        ~run_for:(Time.ms run_for_ms) ()
    in
    Cli.dump r eng;
    Slo.print_table res;
    if not res.Slo.span_bounds_ok then exit 1
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Tail latency through replica death: run a replicated web server \
          under closed-loop load across an injected primary fail-stop and \
          print per-request latency percentiles split into pre-fault / \
          failover-window / post-recovery phases.  The failover window's \
          bounds are the pinned failover.* trace spans, verified against \
          the cluster's own halt/go-live timestamps.")
    Term.(
      const run $ Cli.run
      $ int_t "concurrency" ~default:16 ~docv:"N"
          ~doc:"Closed-loop client workers."
      $ int_t "page-kb" ~default:10 ~docv:"KB" ~doc:"Served page size."
      $ int_t "cpu-us" ~default:1000 ~docv:"US" ~doc:"Per-request CPU loop."
      $ Cli.listen_shards $ Cli.admission
      $ int_t "warmup-ms" ~default:200 ~docv:"MS"
          ~doc:"Server boot time before load is offered."
      $ int_t "fail-at-ms" ~default:600 ~docv:"MS" ~doc:"Primary failure time."
      $ int_t "run-for-ms" ~default:2400 ~docv:"MS"
          ~doc:"Total measured run length."
      $ Cli.config ~base:Scenario.fast_failover
          [ `Driver_ms; `Batch; `Det_shard; `Replay_workers; `Lagmon; `Reprotect;
            `Regen_delay ])

(* {1 memdump} *)

let memdump_cmd =
  let run multiplier ram_gib trace_out =
    let layout = Memlayout.create ~ram_bytes:(ram_gib * 1024 * mib 1) in
    Memcached.apply_load layout ~multiplier;
    let i, d, u = Memlayout.fractions layout in
    (* No engine here; the trace is a single summary event. *)
    Option.iter
      (fun path ->
        let ev = Evlog.create ~cap:16 () in
        Evlog.emit ev ~comp:"app.memdump" "fractions"
          ~args:
            [
              ("multiplier", Evlog.Int multiplier);
              ("ram_gib", Evlog.Int ram_gib);
              ("ignored", Evlog.Float i);
              ("delayed", Evlog.Float d);
              ("user", Evlog.Float u);
            ];
        Cli.write_trace ev path)
      trace_out;
    Printf.printf
      "memcached at %dx on %d GiB: Ignored %.1f%%  Delayed %.1f%%  User %.1f%%\n"
      multiplier ram_gib (100. *. i) (100. *. d) (100. *. u)
  in
  Cmd.v
    (Cmd.info "memdump"
       ~doc:"Classify physical memory under a memcached load (paper Fig. 1).")
    Term.(
      const run
      $ int_t "multiplier" ~default:180 ~docv:"N" ~doc:"Dataset size multiplier."
      $ int_t "ram-gib" ~default:96 ~docv:"GIB" ~doc:"Machine RAM."
      $ Cli.trace_out)

(* {1 chaos} *)

let chaos_cmd =
  let run root_seed seeds quick workload replicas horizon_ms jobs config
      listen_shards admission faults stats_interval fail_on_stall report
      repro_trace log =
    Cli.setup_logging log;
    let stats_interval = Option.map Time.ms stats_interval in
    let { Cluster.det_shard; replay_workers; reprotect; _ } = config in
    match Chaosrun.workload_of_string workload with
    | Error e ->
        Printf.eprintf "ftsim: %s\n" e;
        exit 2
    | Ok w ->
        let seeds = if quick then min seeds 8 else seeds in
        let horizon = Time.ms horizon_ms in
        let jobs = if jobs = 0 then Chaos.default_jobs () else jobs in
        let progress rr =
          let s = rr.Chaos.rr_schedule and o = rr.Chaos.rr_outcome in
          Printf.printf
            "  #%03d %-16s faults=%d perturbs=%d failovers=%d responses=%d \
             sections=%d\n\
             %!"
            s.Chaos.sched_index
            (Chaos.verdict_label o.Chaos.verdict)
            (List.length s.Chaos.injections)
            (List.length s.Chaos.perturbations)
            o.Chaos.o_failovers o.Chaos.o_completed o.Chaos.o_sections
        in
        Printf.printf
          "chaos campaign: %d schedules, root seed %d, workload %s, %d \
           replicas, det-shard %s, replay-workers %d, reprotect %s, jobs %d%s\n\
           %!"
          seeds root_seed workload replicas
          (if det_shard then "on" else "off")
          replay_workers
          (if reprotect then "on" else "off")
          jobs
          (match faults with
          | Some f -> Printf.sprintf ", %d faults per schedule" f
          | None -> "");
        let run_one ?on_trace ?stats_interval s =
          Chaosrun.run ?on_trace ?stats_interval ~config ~listen_shards
            ?admission ~workload:w ~replicas s
        in
        let rep =
          Chaos.run_campaign ~root_seed ~count:seeds ~replicas ~horizon
            ~workload
            ~run:(run_one ?stats_interval)
            ?faults ~progress ~jobs ()
        in
        (match report with
        | None -> ()
        | Some path -> (
            try
              let oc = open_out path in
              output_string oc (Chaos.report_to_json rep);
              close_out oc
            with Sys_error msg ->
              Printf.eprintf "ftsim: cannot write report: %s\n" msg));
        (match rep.Chaos.rep_minimal with
        | None -> ()
        | Some (minimal, o, runs) ->
            Format.printf "minimal repro (%d shrink runs): %a@.verdict: %s@."
              runs Chaos.pp_schedule minimal
              (Chaos.verdict_label o.Chaos.verdict);
            (* Re-run the minimal schedule once to capture its trace. *)
            Option.iter
              (fun path ->
                ignore
                  (run_one ~on_trace:(fun ev -> Cli.write_trace ev path) minimal))
              repro_trace);
        let fails = Chaos.failures rep in
        let count v =
          List.length
            (List.filter
               (fun rr ->
                 Chaos.verdict_label rr.Chaos.rr_outcome.Chaos.verdict = v)
               rep.Chaos.rep_results)
        in
        Printf.printf
          "verdicts: %d ok, %d divergence, %d client-violation, %d outage, \
           %d harness-error\n"
          (count "ok") (count "divergence")
          (count "client-violation")
          (count "outage") (count "harness-error");
        List.iter
          (fun rr ->
            match rr.Chaos.rr_outcome.Chaos.verdict with
            | Chaos.V_harness_error msg ->
                Printf.printf "  harness error: %s\n" msg
            | _ -> ())
          rep.Chaos.rep_results;
        (* Replication-health roll-up: every run carries the worst Lagmon
           verdict its (quiet) monitors saw.  A clean verdict with a stalled
           replication stream is a latent problem the digests cannot see. *)
        let lag_count v =
          List.length
            (List.filter
               (fun rr -> rr.Chaos.rr_outcome.Chaos.o_lag = Some v)
               rep.Chaos.rep_results)
        in
        Printf.printf "replication health: %d ok, %d lagging, %d stalled\n"
          (lag_count "ok") (lag_count "lagging") (lag_count "stalled");
        let stalled_clean =
          List.filter
            (fun rr ->
              rr.Chaos.rr_outcome.Chaos.o_lag = Some "stalled"
              && rr.Chaos.rr_outcome.Chaos.verdict = Chaos.V_ok)
            rep.Chaos.rep_results
        in
        if fails = [] then
          Printf.printf "campaign clean: no divergences, no client violations\n"
        else begin
          Printf.printf "campaign FAILED: %d failing schedule(s)\n"
            (List.length fails);
          exit 1
        end;
        if fail_on_stall && stalled_clean <> [] then begin
          Printf.printf
            "campaign FAILED: %d ok-verdict schedule(s) reported a stalled \
             replication stream\n"
            (List.length stalled_clean);
          exit 1
        end
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"CI mode: cap the campaign at 8 schedules regardless of \
                $(b,--seeds).")
  in
  let workload =
    Arg.(
      value & opt string "fileserver"
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Workload under test: $(b,fileserver) or $(b,mongoose).")
  in
  let report =
    Arg.(
      value & opt (some string) None
      & info [ "report" ] ~docv:"PATH"
          ~doc:"Write the campaign report (schedules, verdicts, minimal \
                repro) as JSON to $(docv).")
  in
  let repro_trace =
    Arg.(
      value & opt (some string) None
      & info [ "repro-trace" ] ~docv:"PATH"
          ~doc:"If the campaign fails, re-run the shrunk minimal repro and \
                write its event trace to $(docv).")
  in
  let fail_on_stall =
    Arg.(
      value & flag
      & info [ "fail-on-stall" ]
          ~doc:
            "Also fail the campaign if any ok-verdict schedule's \
             replication-health monitor reported a $(b,stalled) stream \
             (CI uses this: clean seeds must never stall).")
  in
  let faults =
    int_opt_t "faults" ~docv:"N"
      ~doc:
        "Derive multi-fault schedules with exactly $(docv) fail-stop-\
         dominant injections each (instead of the classic 0-2 fault draws). \
         Pair with $(b,--reprotect on) so each kill is followed by a \
         regeneration the next fault can land on."
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos campaign: derived fault schedules + replica-divergence \
          checker + client-consistency oracle.")
    Term.(
      const run
      $ int_t "root-seed" ~default:42 ~docv:"N"
          ~doc:"Campaign root seed; schedule $(i,i) derives from (seed, i)."
      $ int_t "seeds" ~default:20 ~docv:"N"
          ~doc:"Number of schedules to derive and run."
      $ quick $ workload
      $ int_t "replicas" ~default:2 ~docv:"N" ~doc:"Replica count (2 or 3)."
      $ int_t "horizon-ms" ~default:3000 ~docv:"MS"
          ~doc:"Simulated-time cap per run; faults land in its first 3/4."
      $ Cli.jobs
      $ Cli.config ~base:Chaosrun.config
          [ `Det_shard; `Replay_workers; `Reprotect; `Regen_delay ]
      $ Cli.listen_shards $ Cli.admission $ faults $ Cli.stats_interval
      $ fail_on_stall $ report $ repro_trace $ Cli.log)

let () =
  let info =
    Cmd.info "ftsim" ~version:"1.0"
      ~doc:"FT-Linux intra-machine replication simulator (ICDCS 2017 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            pbzip2_cmd;
            mongoose_cmd;
            failover_cmd;
            fileserver_cmd;
            timeline_cmd;
            triple_cmd;
            slo_cmd;
            memdump_cmd;
            chaos_cmd;
          ]))
