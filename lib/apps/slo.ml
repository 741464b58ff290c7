open Ftsim_sim
open Ftsim_ftlinux

(* SLO reporter: a replicated Mongoose served to closed-loop ApacheBench
   workers through an injected primary fail-stop, with per-request latency
   split into pre-fault / failover-window / post-recovery phases by
   {!Scenario.run}. *)

type report = {
  fail_at : Time.t;
  window : (Time.t * Time.t) option;
  span_bounds_ok : bool;
  pre : Metrics.Hist.t;
  fo : Metrics.Hist.t;
  post : Metrics.Hist.t;
  completions : (Time.t * Time.t) list;
  completed : int;
  errors : int;
  latency_w : Metrics.Whist.t;
  lag_verdict : Lagmon.verdict option;
  lag_worst : Lagmon.verdict option;
}

let run eng ?(config = Scenario.fast_failover) ?(concurrency = 16)
    ?(page_bytes = 10 * 1024) ?(cpu_per_request = Time.ms 1)
    ?(listen_shards = 1) ?admission ?(warmup = Time.ms 200)
    ?(fail_at = Time.ms 600) ?(run_for = Time.ms 2400) () =
  if fail_at <= warmup then invalid_arg "Slo.run: fail_at must be after warmup";
  if run_for <= fail_at then invalid_arg "Slo.run: run_for must be after fail_at";
  let app =
    Mongoose.run
      ~params:
        {
          Mongoose.default_params with
          Mongoose.page_bytes;
          cpu_per_request;
          listen_shards;
          admission;
        }
  in
  let r =
    Scenario.run eng
      (Scenario.make ~kills:[ (Replica_set.Primary, fail_at) ]
         ~drain:(Time.ms 100) ~seeded_link:true (Replicated config) app
         (Ab { target = "/"; concurrency; start = Some warmup })
         [ Until run_for ])
  in
  let stats = Scenario.ab_stats r in
  let lagmon = Cluster.lagmon (Scenario.cluster r) in
  {
    fail_at;
    window = r.window;
    span_bounds_ok = r.bounds_ok;
    pre = r.pre;
    fo = r.fo;
    post = r.post;
    completions = r.completions;
    completed = Metrics.Counter.value stats.Loadgen.completed;
    errors = Metrics.Counter.value stats.Loadgen.errors;
    latency_w = stats.Loadgen.latency_w;
    lag_verdict = Option.map Lagmon.verdict lagmon;
    lag_worst = Option.map Lagmon.worst lagmon;
  }

(* The phase-split percentile table `ftsim slo` prints. *)
let print_table r =
  let cell h q =
    match Scenario.quantile h q with
    | None -> "-"
    | Some v -> Printf.sprintf "%.2f" v
  in
  let row label h =
    Printf.printf "%-16s %8d %10s %10s %10s %10s\n" label (Metrics.Hist.count h)
      (cell h 0.5) (cell h 0.9) (cell h 0.99) (cell h 0.999)
  in
  (match r.window with
  | Some (lo, hi) ->
      Printf.printf
        "failover window: %.3f ms .. %.3f ms (%.3f ms, from pinned \
         failover.* spans%s)\n"
        (Time.to_ms_f lo) (Time.to_ms_f hi)
        (Time.to_ms_f (hi - lo))
        (if r.span_bounds_ok then ", bounds verified" else
           ", BOUNDS MISMATCH vs cluster timestamps")
  | None -> Printf.printf "failover window: none (fault did not trigger)\n");
  Printf.printf "%-16s %8s %10s %10s %10s %10s  (latency, ms)\n" "phase" "reqs"
    "p50" "p90" "p99" "p999";
  row "pre-fault" r.pre;
  row "failover" r.fo;
  row "post-recovery" r.post;
  Printf.printf "completed %d, errors %d" r.completed r.errors;
  (match (r.lag_verdict, r.lag_worst) with
  | Some v, Some w ->
      Printf.printf "; replication health: %s (worst: %s)"
        (Lagmon.verdict_label v) (Lagmon.verdict_label w)
  | _ -> ());
  print_newline ()
