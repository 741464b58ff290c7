(* The repository benchmark.  One invocation runs one workload in its own
   process (the heap high-water mark is per process), on one domain:

     bash perfbench/run.sh --workload web-failover --seed 1 --seconds 30 --trace 0

   --trace 0 repeats untraced iterations of the workload for --seconds,
   and prints the end-to-end metrics: simulated ones (exact for a seed,
   checked identical across the iterations) and host ones (medians, in
   the nominal seconds of Hostclock).
   --trace 1 runs untraced iterations for half the time, then one traced
   iteration, checks its simulated metrics equal the untraced ones byte for
   byte, and prints the per-layer metrics; spans go to
   perfbench/out/<workload>-seed<n>.spans.jsonl.

   The last line of output is one JSON object: correct, attempted,
   failed and the metrics named in BENCHMARK.json.  A failed output check
   prints it with "correct": false and exits 1.  WORKLOADS.md explains
   every workload and metric. *)

open Stats
module W = Workloads

(* Reported by every workload, so listed in BENCHMARK.json; the rest of
   each table is printed above the JSON line. *)
let end_to_end_json = [ "setup_s"; "host_wall_s"; "peak_heap_mb"; "ops_per_s" ]

let per_layer_json =
  [
    "engine.events_per_op";
    "engine.events.boot";
    "engine.events.pre";
    "engine.host_s.boot";
    "engine.host_s.pre";
    "engine.host_ns_per_event";
    "engine.timers_armed_per_op";
    "engine.timer_cancel_ratio";
    "engine.procs_per_op";
    "gc.alloc_words_per_op";
    "gc.major_collections";
    "evlog.dropped_events";
    "mailbox.msgs_per_op";
    "mailbox.bytes_per_op";
    "det.sections_per_op";
    "det.contended_ratio";
    "replay.gate_stalls_per_op";
    "replay.lag_ms.p50";
    "replay.lag_ms.p99";
    "msglayer.records_per_op";
    "msglayer.records_per_frame";
    "msglayer.commit_flush_ratio";
    "kernel.compute_ms_per_op";
    "tcp.segs_per_op";
    "tcp.bytes_per_op";
    "trace.overhead_ratio";
  ]

type workload = {
  iteration : seed:int -> trace:bool -> W.result;
  setup_only : seed:int -> float;
}

let workloads =
  [
    ("web-failover", { iteration = W.Web.iteration; setup_only = W.Web.setup_only });
    ("pbzip2-stream", { iteration = W.Pbz.iteration; setup_only = W.Pbz.setup_only });
    ("bulk-failover", { iteration = W.Bulk.iteration; setup_only = W.Bulk.setup_only });
  ]

(* Set-ups measured on their own before the iterations, each followed by
   a full collection so one set-up's garbage is not charged to the next. *)
let extra_setups = 15

let usage () =
  prerr_endline
    ("usage: main.exe --workload <"
    ^ String.concat "|" (List.map fst workloads)
    ^ "> --seed <n> --seconds <s> --trace <0|1>");
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg r v =
    match int_of_string_opt v with Some n -> r := Some n | None -> usage ()
  in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        int_arg seed v;
        go rest
    | "--seconds" :: v :: rest ->
        int_arg seconds v;
        go rest
    | "--trace" :: v :: rest ->
        int_arg trace v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some (0 | 1 as t) when seconds > 0 -> (
      match List.assoc_opt w workloads with
      | Some wl -> (w, wl, seed, seconds, t = 1)
      | None -> usage ())
  | _ -> usage ()

(* Simulated end-to-end metrics, printed exactly: two runs agree iff these
   strings do. *)
let sim_key (r : W.result) =
  String.concat ";"
    (Printf.sprintf "events=%d" r.W.events
    :: List.map (fun m -> m.name ^ "=" ^ json_value m.value) r.W.sim)

type measured = {
  results : W.result list;  (** oldest first *)
  walls : float array;  (** host_wall_s per iteration, normalised *)
  raw_walls : float array;  (** wall clock per iteration, set-up included *)
  alloc_words : float;  (** of the last iteration *)
  major : int;
  peak_heap_mb : float;
      (** heap high-water mark after the set-ups and the first iteration,
          so it does not depend on how many iterations fit the budget *)
}

(* Untraced iterations until [budget] host seconds have passed (at least
   one). *)
let measure wl ~seed ~budget =
  let t0 = Unix.gettimeofday () in
  let rec go acc =
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let w0 = Unix.gettimeofday () in
    let r = wl.iteration ~seed ~trace:false in
    let raw = Unix.gettimeofday () -. w0 in
    let g1 = Gc.quick_stat () in
    let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
    let acc =
      ( r,
        raw,
        words g1 -. words g0,
        g1.Gc.major_collections - g0.Gc.major_collections,
        g1.Gc.top_heap_words )
      :: acc
    in
    if Unix.gettimeofday () -. t0 < budget then go acc else List.rev acc
  in
  let runs = go [] in
  let results = List.map (fun (r, _, _, _, _) -> r) runs in
  let _, _, alloc_words, major, _ = List.nth runs (List.length runs - 1) in
  let _, _, _, _, top = List.hd runs in
  {
    results;
    walls = Array.of_list (List.map (fun r -> r.W.wall_s) results);
    raw_walls = Array.of_list (List.map (fun (_, raw, _, _, _) -> raw) runs);
    alloc_words;
    major;
    peak_heap_mb = float_of_int (top * (Sys.word_size / 8)) /. float_of_int (1024 * 1024);
  }

let secs xs = String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.3f") xs))

let print_metric kind m =
  Printf.printf "%-6s %-32s %14s %-6s %s\n" kind m.name (show m.value) m.unit_
    (if m.base = "" then "" else "[" ^ m.base ^ "]")

let json_metrics names (all : metric list) =
  String.concat ", "
    (List.map
       (fun name ->
         match List.find_opt (fun m -> m.name = name) all with
         | Some m ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_value m.value) m.unit_
         | None -> Printf.sprintf "%S: {\"value\": null, \"unit\": \"\"}" name)
       names)

let write_spans path (sp : W.spans) =
  let oc = open_out path in
  List.iter
    (fun (s : W.span) ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"clock\": %S, \"start\": %s, \"end\": %s, \"parent\": %d, \"req\": %d}\n"
        s.W.id s.W.name
        (match s.W.clock with `Sim -> "sim_ns" | `Host -> "host_s")
        (json_number s.W.start) (json_number s.W.stop) s.W.parent s.W.req)
    (List.rev sp.W.all);
  close_out oc

let () =
  let name, wl, seed, seconds, trace = parse_args () in
  let setups =
    List.init extra_setups (fun _ ->
        let s = wl.setup_only ~seed in
        Gc.full_major ();
        s)
  in
  let budget = if trace then float_of_int seconds /. 2. else float_of_int seconds in
  let m = measure wl ~seed ~budget in
  let first = List.hd m.results in
  let keys = List.map sim_key m.results in
  let problems =
    List.sort_uniq compare (List.concat_map (fun r -> r.W.problems) m.results)
    @
    if List.exists (fun k -> k <> List.hd keys) keys then
      [ "simulated metrics differ between same-seed iterations" ]
    else []
  in
  let setup_samples = Array.of_list (setups @ List.map (fun r -> r.W.setup_s) m.results) in
  let wall = median m.walls in
  let n = List.length m.results in
  let host =
    [
      metric "setup_s" "s" (median setup_samples)
        ~base:(Printf.sprintf "median of %d set-ups, nominal s" (Array.length setup_samples));
      metric "host_wall_s" "s" wall
        ~base:
          (Printf.sprintf "median of %d untraced iterations: %s; wall clock %s" n (secs m.walls)
             (secs m.raw_walls));
      metric "peak_heap_mb" "MiB" (Some m.peak_heap_mb)
        ~base:"top_heap_words after the set-ups and the first iteration";
    ]
  in
  Printf.printf "perfbench %s seed %d: %d untraced iteration(s)%s\n" name seed n
    (if trace then " + 1 traced" else "");
  List.iter (Printf.printf "  %s\n") first.W.notes;
  List.iter (print_metric "e2e") (host @ first.W.sim);
  let problems, layer_json =
    if not trace then (problems, json_metrics end_to_end_json (host @ first.W.sim))
    else begin
      let last = List.nth m.results (n - 1) in
      let traced = wl.iteration ~seed ~trace:true in
      let problems =
        problems
        @ traced.W.problems
        @
        if sim_key traced <> sim_key last then
          [
            "traced run's simulated metrics differ from the untraced run's: "
            ^ sim_key traced ^ " vs " ^ sim_key last;
          ]
        else []
      in
      let layers =
        last.W.layers
        @ [
            metric "gc.alloc_words_per_op" "words"
              (ratio m.alloc_words last.W.ops)
              ~base:(Printf.sprintf "last untraced iteration, %.0f ops" last.W.ops);
            metric "gc.major_collections" "count" (Some (float_of_int m.major))
              ~base:"last untraced iteration";
          ]
        @ traced.W.tapped
        @ [
            metric "trace.overhead_ratio" "ratio"
              (Option.bind wall (fun w -> ratio traced.W.wall_s w))
              ~base:"traced / median untraced host_wall_s";
          ]
      in
      List.iter (print_metric "layer") layers;
      List.iter
        (fun (span, count, total, self) ->
          Printf.printf "span   %-24s n=%-7d total %12.3f ms   self %12.3f ms\n" span count total self)
        (W.self_times traced.W.spans);
      (try
         if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
         write_spans (Printf.sprintf "perfbench/out/%s-seed%d.spans.jsonl" name seed) traced.W.spans
       with Sys_error e -> Printf.eprintf "perfbench: cannot write spans: %s\n" e);
      (problems, json_metrics per_layer_json layers)
    end
  in
  List.iter (Printf.eprintf "perfbench: check failed: %s\n") problems;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (problems = []) first.W.attempted first.W.failed layer_json;
  exit (if problems = [] then 0 else 1)
