(* The three workloads.  Each builds its clusters from the library's
   defaults ([Cluster.default_config], [Mongoose.default_params], ...) and
   changes only the fields WORKLOADS.md lists, so a change to a default is
   measured.  One iteration of a workload runs every part of it once and
   returns its simulated metrics, its host set-up and run time, its
   per-layer counters and — when traced — the spans of the main run. *)

open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux
open Ftsim_apps
open Stats

let mib n = n * 1024 * 1024

(* The paper's client link: 1 Gb/s, 100 µs one way. *)
let client_link eng =
  Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) ()

let lookup eng name = Metrics.Registry.find (Engine.metrics eng) name

let count eng name =
  match lookup eng name with
  | Some (Metrics.Registry.V_counter n) -> n
  | Some (Metrics.Registry.V_gauge g) -> int_of_float g
  | _ -> 0

let hist eng name =
  match lookup eng name with
  | Some (Metrics.Registry.V_hist h) when Metrics.Hist.count h > 0 -> Some h
  | _ -> None

(* {1 Engine slices}

   [Engine.run] is cut wherever the lifecycle moves, and each slice is
   timed on the host clock.  Labels name the phase that starts at the cut:
   boot (creation), pre (first offered op), failover (the kill), regen
   (go-live, when re-protection follows), post (Protected again, or
   go-live without re-protection), end. *)

type cut = { label : string; host : float; events : int }

type slicer = {
  eng : Engine.t;
  mutable cuts : cut list;  (** newest first *)
  mutable pending : string option;
  mutable takeover : (Time.t * Time.t) option;
      (** failover start and go-live, read at go-live: re-protection
          clears the cluster's own copies at the epoch switch *)
}

let slicer eng = { eng; cuts = []; pending = None; takeover = None }

let cut s label =
  s.cuts <-
    { label; host = Hostclock.now (); events = count s.eng "engine.events_fired" }
    :: s.cuts

(* Runs in 5 ms simulated slices so the host clock can be recalibrated
   between them; slicing fires the same events in the same order. *)
let slice = Time.ms 5

let rec run_to s until =
  let before = Engine.now s.eng in
  Engine.run ~until:(min until (before + slice)) s.eng;
  Hostclock.tick ();
  let stopped = s.pending in
  Option.iter
    (fun label ->
      s.pending <- None;
      cut s label)
    stopped;
  let now = Engine.now s.eng in
  if stopped <> None || (now < until && now > before) then run_to s until

(* Cut at the return to Protected: the subscriber only stops the engine
   loop, which adds no event. *)
let cut_on_protected s cluster =
  Cluster.on_transition cluster (fun tr ->
      if tr.Cluster.tr_to = Cluster.Protected then begin
        s.pending <- Some "post";
        Engine.stop s.eng
      end)

(* Go-live is not a lifecycle transition, so after the kill the engine
   runs in 1 ms slices until the cluster reports it. *)
let run_through_failover s cluster ~reprotect ~cap =
  while Cluster.failover_completed_at cluster = None && Engine.now s.eng < cap do
    run_to s (min cap (Engine.now s.eng + Time.ms 1))
  done;
  match (Cluster.failover_started_at cluster, Cluster.failover_completed_at cluster) with
  | Some a, Some b ->
      s.takeover <- Some (a, b);
      cut s (if reprotect then "regen" else "post")
  | _ -> ()

let run_until s ~cap ~finished =
  let rec go () =
    let before = Engine.now s.eng in
    if (not (finished ())) && before < cap then begin
      run_to s (min cap (before + Time.ms 100));
      if Engine.now s.eng > before then go ()
    end
  in
  go ()

let phase_names = [ "boot"; "pre"; "failover"; "regen"; "post" ]

(* Per-phase (host seconds, engine events); absent phases are [None]. *)
let phases s =
  let cuts = List.rev s.cuts in
  let rec spans = function
    | a :: (b :: _ as rest) ->
        (a.label, (b.host -. a.host, b.events - a.events)) :: spans rest
    | _ -> []
  in
  let got = spans cuts in
  List.map (fun p -> (p, List.assoc_opt p got)) phase_names

(* {1 Spans} *)

type span = {
  id : int;
  name : string;
  clock : [ `Sim | `Host ];
  start : float;  (** ns on the simulated clock, s on the host clock *)
  stop : float;
  parent : int;  (** 0: none *)
  req : int;  (** request id; -1: none *)
}

type spans = { mutable next : int; mutable all : span list }

let add sp ?(parent = 0) ?(req = -1) ?(clock = `Sim) name start stop =
  sp.next <- sp.next + 1;
  sp.all <-
    { id = sp.next; name; clock; start; stop; parent; req } :: sp.all;
  sp.next

let sim_span sp ?parent ?req name (a : Time.t) (b : Time.t) =
  if a >= 0 && b >= a then
    Some (add sp ?parent ?req name (float_of_int a) (float_of_int b))
  else None

(* One host-clock span per engine phase of a run. *)
let phase_spans sp s =
  let rec go = function
    | a :: (b :: _ as rest) ->
        ignore (add sp ~clock:`Host ("engine." ^ a.label) a.host b.host);
        go rest
    | _ -> ()
  in
  go (List.rev s.cuts)

(* The server half of one request: accept wait, service (with the computes
   made while serving), and one egress span per live send, ended by the
   client's receipt of that send's last byte. *)
let request_spans sp ~(conns : Tap.conn list) (r : Client.req) =
  let finished = if r.Client.finished >= 0 then r.Client.finished else r.Client.due in
  match sim_span sp ~req:r.Client.id "req" r.Client.due finished with
  | None -> ()
  | Some root ->
      let child name a b = ignore (sim_span sp ~parent:root ~req:r.Client.id name a b) in
      child "tcp.connect" r.Client.due r.Client.connected;
      let mine = List.filter (fun c -> c.Tap.port = r.Client.port) conns in
      (match List.find_opt (fun c -> c.Tap.accepted_live) (List.rev mine) with
      | None -> ()
      | Some c -> (
          child "server.accept_wait" r.Client.connected c.Tap.accepted;
          let service =
            sim_span sp ~parent:root ~req:r.Client.id "server.service" c.Tap.accepted
              c.Tap.last_send
          in
          match service with
          | None -> ()
          | Some svc ->
              List.iter
                (fun (a, b) ->
                  ignore (sim_span sp ~parent:svc ~req:r.Client.id "kernel.compute" a b))
                c.Tap.computes));
      let rx = Array.of_list (List.rev r.Client.rx) in
      let sends =
        List.sort compare (List.concat_map (fun c -> c.Tap.sends) mine)
      in
      let i = ref 0 in
      List.iter
        (fun (off, at) ->
          while !i < Array.length rx && fst rx.(!i) < off do incr i done;
          if !i < Array.length rx then child "commit.egress" at (snd rx.(!i)))
        sends;
      if r.Client.outcome = Client.Ok_resp then
        child "http.body" r.Client.header_at r.Client.finished

(* Self time per span name: each span's length minus the union of its
   children's intervals, summed (sim spans only, in ms). *)
let self_times sp =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent > 0 then Hashtbl.add kids s.parent (s.start, s.stop))
    sp.all;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.clock = `Sim then begin
        let ivs = List.sort compare (Hashtbl.find_all kids s.id) in
        let covered, _ =
          List.fold_left
            (fun (acc, reach) (a, b) ->
              let a = Float.max a (Float.max reach s.start) and b = Float.min b s.stop in
              if b > a then (acc +. (b -. a), b) else (acc, reach))
            (0., s.start) ivs
        in
        let n, total, self =
          Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
        in
        Hashtbl.replace tbl s.name
          (n + 1, total +. (s.stop -. s.start), self +. (s.stop -. s.start -. covered))
      end)
    sp.all;
  List.sort compare
    (Hashtbl.fold (fun name (n, total, self) acc -> (name, n, total /. 1e6, self /. 1e6) :: acc) tbl [])

let durations_ms sp name =
  Array.of_list
    (List.filter_map
       (fun s -> if s.name = name then Some ((s.stop -. s.start) /. 1e6) else None)
       sp.all)

(* {1 Iteration results} *)

type result = {
  setup_s : float;  (** host: creation of the main run to its first offered op *)
  wall_s : float;  (** host: first offered op to end, summed over the parts *)
  ops : float;  (** the denominator of every per-op figure *)
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks *)
  notes : string list;  (** per-part detail printed above the metrics *)
  sim : metric list;  (** end-to-end, simulated clock *)
  layers : metric list;  (** counters and phases, read without the tap *)
  tapped : metric list;  (** from the tap and the spans; [] when untraced *)
  spans : spans;
  events : int;  (** engine events of the main run *)
}

let host_since t0 = Hostclock.now () -. t0

(* Counters the layers publish, normalised by the workload's ops. *)
let layer_counters eng ~ops ~server_ip s =
  let per n = ratio (float_of_int n) ops in
  let c = count eng in
  let events = c "engine.events_fired" in
  let ph = phases s in
  let host_total =
    List.fold_left
      (fun acc (p, v) -> match (p, v) with "boot", _ | _, None -> acc | _, Some (h, _) -> acc +. h)
      0. ph
  in
  let run_events =
    List.fold_left
      (fun acc (p, v) -> match (p, v) with "boot", _ | _, None -> acc | _, Some (_, e) -> acc + e)
      0 ph
  in
  let base = Printf.sprintf "per op, %.0f ops" ops in
  let sections = c "det.sections" in
  let frames = c "msglayer.frames_sent" in
  let tcp n = c (Printf.sprintf "tcp.%s.%s" server_ip n) in
  let lock = hist eng "det.lock_wait_ns" in
  [
    metric "engine.events_per_op" "count" (per events) ~base;
  ]
  @ List.map
      (fun (p, v) ->
        metric ("engine.events." ^ p) "count"
          (Option.map (fun (_, e) -> float_of_int e) v)
          ~base:"engine events fired in the phase")
      ph
  @ List.map
      (fun (p, v) ->
        metric ("engine.host_s." ^ p) "s" (Option.map fst v)
          ~base:"host seconds spent in the phase")
      ph
  @ [
      metric "engine.host_ns_per_event" "ns"
        (ratio (host_total *. 1e9) (float_of_int run_events))
        ~base:(Printf.sprintf "%d events after boot" run_events);
      metric "engine.timers_armed_per_op" "count" (per (c "engine.timers_armed")) ~base;
      metric "engine.timer_cancel_ratio" "ratio"
        (ratio (float_of_int (c "engine.timers_cancelled")) (float_of_int (c "engine.timers_armed")))
        ~base:(Printf.sprintf "%d timers armed" (c "engine.timers_armed"));
      metric "engine.procs_per_op" "count" (per (c "engine.procs_spawned")) ~base;
      metric "evlog.dropped_events" "count" (Some (float_of_int (c "evlog.dropped_events")));
      metric "mailbox.msgs_per_op" "count" (per (c "mailbox.msgs_sent")) ~base;
      metric "mailbox.bytes_per_op" "B" (per (c "mailbox.bytes_sent")) ~base;
      metric "det.sections_per_op" "count" (per sections) ~base;
      metric "det.lock_wait_ms_per_op" "ms"
        (Option.bind lock (fun h ->
             ratio (Metrics.Hist.mean h *. float_of_int (Metrics.Hist.count h) /. 1e6) ops))
        ~base;
      metric "det.lock_wait_ms.p99" "ms"
        (Option.map (fun h -> Metrics.Hist.quantile h 0.99 /. 1e6) lock)
        ~base:"det.lock_wait_ns histogram (log buckets, ~9 %)";
      metric "det.contended_ratio" "ratio"
        (ratio
           (float_of_int (c "det.contended.misc" + c "det.contended.fs" + c "det.contended.obj"))
           (float_of_int sections))
        ~base:(Printf.sprintf "%d det sections" sections);
      metric "replay.gate_stalls_per_op" "count" (per (c "replay.gate_stalls")) ~base;
      metric "msglayer.records_per_op" "count" (per (c "msglayer.records_appended")) ~base;
      metric "msglayer.records_per_frame" "count"
        (ratio (float_of_int (c "msglayer.records_appended")) (float_of_int frames))
        ~base:(Printf.sprintf "%d frames" frames);
      metric "msglayer.commit_flush_ratio" "ratio"
        (ratio (float_of_int (c "msglayer.commit_flushes")) (float_of_int frames))
        ~base:(Printf.sprintf "%d frames" frames);
      metric "msglayer.ack_rtt_ms.p99" "ms"
        (Option.map (fun h -> Metrics.Hist.quantile h 0.99 /. 1e6) (hist eng "lag.rtt_ns"))
        ~base:"lag.rtt_ns histogram (log buckets, ~9 %)";
      metric "tcp.segs_per_op" "count" (per (tcp "segs_in" + tcp "segs_out"))
        ~base:("server stack, " ^ base);
      metric "tcp.bytes_per_op" "B" (per (tcp "bytes_in" + tcp "bytes_out"))
        ~base:("server stack, " ^ base);
    ]

(* Metrics read off the tap: compute waits, replay lag, and the request
   spans' percentiles. *)
let tap_metrics (tap : Tap.t) sp ~ops =
  let pct q xs = percentile q xs in
  let waits = ms_of_ns_vec tap.Tap.computes in
  let lags = ms_of_ns_vec (Tap.replay_lags tap) in
  let n xs = Printf.sprintf "%d samples" (Array.length xs) in
  let dist name q =
    let xs = durations_ms sp name in
    metric (Printf.sprintf "%s_ms.p%g" name q) "ms" (pct q xs) ~base:(n xs)
  in
  [
    metric "kernel.compute_wait_ms.p50" "ms" (pct 50. waits) ~base:(n waits);
    metric "kernel.compute_wait_ms.p99" "ms" (pct 99. waits) ~base:(n waits);
    metric "kernel.compute_ms_per_op" "ms"
      (ratio (float_of_int tap.Tap.compute_asked /. 1e6) ops)
      ~base:(Printf.sprintf "CPU asked on the live replica, %.0f ops" ops);
    metric "replay.lag_ms.p50" "ms" (pct 50. lags) ~base:(n lags);
    metric "replay.lag_ms.p99" "ms" (pct 99. lags) ~base:(n lags);
    dist "tcp.connect" 99.;
    dist "server.accept_wait" 99.;
    dist "server.service" 50.;
    dist "server.service" 99.;
    dist "commit.egress" 50.;
    dist "commit.egress" 99.;
  ]

let cluster_metrics cluster s ~kill =
  let ms a b = Some (Time.to_ms_f (b - a)) in
  let trs = Cluster.transitions cluster in
  let first_to st = List.find_opt (fun tr -> tr.Cluster.tr_to = st) trs in
  let at tr = tr.Cluster.tr_at in
  let started = Option.map fst s.takeover and live = Option.map snd s.takeover in
  let degraded = first_to Cluster.Degraded and regen = first_to Cluster.Regenerating in
  let protected_ =
    List.find_opt (fun tr -> tr.Cluster.tr_to = Cluster.Protected && tr.Cluster.tr_epoch > 0) trs
  in
  let opt = Option.bind in
  [
    metric "cluster.detect_ms" "ms" (opt started (ms kill)) ~base:"kill to failover start";
    metric "cluster.golive_ms" "ms"
      (opt started (fun s -> opt live (ms s)))
      ~base:"failover start to live";
    metric "cluster.degraded_ms" "ms"
      (opt degraded (fun d -> opt regen (fun r -> ms (at d) (at r))))
      ~base:"Degraded to Regenerating";
    metric "cluster.regen_ms" "ms"
      (opt regen (fun r -> opt protected_ (fun p -> ms (at r) (at p))))
      ~base:"Regenerating to Protected";
    metric "cluster.journal_records" "count"
      (Option.map float_of_int (Cluster.switch_cutoff cluster))
      ~base:"journal length at the epoch switch";
  ]

(* Kill to the first byte that ends the longest receive silence after it. *)
let outage_ms ~kill times =
  let ts = List.sort compare (List.filter (fun t -> t >= kill) times) in
  let _, (_, best) =
    List.fold_left
      (fun (prev, (gap, end_)) t -> if t - prev > gap then (t, (t - prev, t)) else (t, (gap, end_)))
      (kill, (-1, kill))
      ts
  in
  if best = kill then None else Some (Time.to_ms_f (best - kill))

let check_cluster cluster =
  (match Cluster.compare_digests cluster with
  | None -> []
  | Some _ -> [ "replica digests diverge" ])
  @
  match Cluster.replay_divergence cluster with
  | None -> []
  | Some d -> [ "replay divergence: " ^ d ]

(* The kernel whose outputs reach the wire: the first primary until the
   (single) takeover completes, the first secondary after it. *)
let tap_live tap cluster =
  let p = Cluster.primary_kernel cluster and s = Cluster.secondary_kernel cluster in
  Option.iter
    (fun t ->
      Tap.set_live t (fun k ->
          if Cluster.failover_completed_at cluster = None then k == p else k == s))
    tap

(* {1 web-failover} *)

module Web = struct
  let first_op = Time.ms 200
  let ladder = [ 600.; 800.; 1000.; 1200. ]
  let ladder_window = Time.ms 1250
  let ref_rate = 800.
  let pre_fault = Time.ms 500
  let kill = first_op + pre_fault
  let ref_window = pre_fault + Time.ms 600
  let timeout = Time.sec 1
  let limit_ms = 50.
  let user_mb = 256

  let params =
    {
      Mongoose.default_params with
      Mongoose.cpu_per_request = Time.us 200;
      listen_shards = 4;
      accept_backlog = Some 64;
      admission = Some 16;
    }

  let config () =
    let layout = Memlayout.create ~ram_bytes:(4 * 1024 * mib 1) in
    Memlayout.alloc_user layout (mib user_mb);
    {
      Cluster.default_config with
      Cluster.topology = Topology.small;
      hb_period = Time.ms 5;
      hb_timeout = Time.ms 25;
      driver_load_time = Time.ms 200;
      lagmon = Some { Lagmon.default_config with Lagmon.quiet = true };
      reprotect = true;
      regen_layout = Some layout;
    }

  type run = {
    r_eng : Engine.t;
    r_cluster : Cluster.t;
    r_slicer : slicer;
    r_reqs : Client.req array;
    r_tap : Tap.t option;
    r_setup : float;
    r_wall : float;
    r_bad : string list ref;
  }

  (* Everything up to the first offered op: the set-up [setup_s] times. *)
  let boot ~seed ~rate ~window ~kill ~trace =
    let t0 = Hostclock.now () in
    let eng = Engine.create ~seed () in
    let s = slicer eng in
    cut s "boot";
    let link = client_link eng in
    let tap = if trace then Some (Tap.create eng) else None in
    let app api =
      Mongoose.run ~params (match tap with Some t -> Tap.wrap t api | None -> api)
    in
    let cluster = Cluster.create eng ~config:(config ()) ~link:(Link.endpoint_a link) ~app () in
    tap_live tap cluster;
    cut_on_protected s cluster;
    Option.iter (fun at -> Cluster.kill cluster ~role:Replica_set.Primary ~at) kill;
    let host = Host.create eng ~ip:Client.client_ip (Link.endpoint_b link) in
    let bad = ref [] in
    let dues = Client.due_times ~seed ~rate ~start:first_op ~window in
    let reqs =
      Client.start_web host eng ~dues ~page_bytes:params.Mongoose.page_bytes ~timeout ~trace
        ~bad:(fun m -> bad := m :: !bad)
    in
    run_to s first_op;
    {
      r_eng = eng;
      r_cluster = cluster;
      r_slicer = s;
      r_reqs = reqs;
      r_tap = tap;
      r_setup = host_since t0;
      r_wall = 0.;
      r_bad = bad;
    }

  let run ~seed ~rate ~window ~kill ~trace =
    let r = boot ~seed ~rate ~window ~kill ~trace in
    let s = r.r_slicer in
    cut s "pre";
    let t1 = Hostclock.now () in
    let horizon = first_op + window + timeout in
    (match kill with
    | Some at ->
        run_to s at;
        cut s "failover";
        run_through_failover s r.r_cluster ~reprotect:true ~cap:horizon
    | None -> ());
    run_to s horizon;
    cut s "end";
    let wall = host_since t1 in
    Cluster.shutdown r.r_cluster;
    { r with r_wall = wall }

  let ok = Client.ok ~timeout
  let latency r = Time.to_ms_f (r.Client.finished - r.Client.due)

  let lat_of reqs pred =
    Array.of_list
      (List.filter_map
         (fun r -> if ok r && pred r then Some (latency r) else None)
         (Array.to_list reqs))

  let tally reqs =
    Array.fold_left
      (fun (ok_, shed, failed) r ->
        if ok r then (ok_ + 1, shed, failed)
        else if r.Client.outcome = Client.Shed then (ok_, shed + 1, failed)
        else (ok_, shed, failed + 1))
      (0, 0, 0) reqs

  type rung = {
    g_run : run;
    g_meets : bool;
    g_attempted : int;
    g_failed : int;
    g_overflow : int;
    g_note : string;
    g_latencies : float array;  (** OK requests, ms *)
  }

  (* One ladder rung: p99 over every attempted request (a failed or shed
     one counts as over the limit), and the backlog left when arrivals
     stop against what Little's law allows at the limit. *)
  let rung ~seed ~trace rate =
    let r = run ~seed ~rate ~window:ladder_window ~kill:None ~trace in
    let n = Array.length r.r_reqs in
    let ok_, shed, failed = tally r.r_reqs in
    let all =
      Array.map (fun q -> if ok q then latency q else Float.infinity) r.r_reqs
    in
    let p50 = percentile 50. all and p99 = percentile 99. all in
    let close = first_op + ladder_window in
    let backlog =
      Array.fold_left
        (fun acc q ->
          if q.Client.due < close && (q.Client.finished < 0 || q.Client.finished > close) then acc + 1
          else acc)
        0 r.r_reqs
    in
    let allowed = rate *. limit_ms /. 1000. in
    let meets =
      failed = 0 && shed = 0
      && (match p99 with Some v -> v <= limit_ms | None -> false)
      && float_of_int backlog <= allowed
    in
    let ovf =
      count r.r_eng (Printf.sprintf "tcp.%s.accept_overflow_drop" Client.server_ip)
      + count r.r_eng (Printf.sprintf "tcp.%s.accept_overflow_rst" Client.server_ip)
    in
    let note =
      Printf.sprintf
        "ladder %6.0f req/s: %5d attempted, %5d ok, %4d shed, %4d failed, p50 %s ms, \
         p99 %s ms, backlog %d (allowed %.0f), overflow %d%s"
        rate n ok_ shed failed (show p50) (show p99) backlog allowed ovf
        (if meets then "" else "  [misses]")
    in
    {
      g_run = r;
      g_meets = meets;
      g_attempted = n;
      g_failed = failed;
      g_overflow = ovf;
      g_note = note;
      g_latencies = lat_of r.r_reqs (fun _ -> true);
    }

  let iteration ~seed ~trace =
    let rungs = List.map (fun rate -> (rate, rung ~seed ~trace rate)) ladder in
    let max_rate =
      List.fold_left (fun acc (rate, g) -> if g.g_meets then Some rate else acc) None rungs
    in
    let r = run ~seed ~rate:ref_rate ~window:ref_window ~kill:(Some kill) ~trace in
    let c = r.r_cluster in
    let reqs = r.r_reqs in
    let n = Array.length reqs in
    let ok_, shed, failed = tally reqs in
    let protected_at =
      List.find_map
        (fun tr ->
          if tr.Cluster.tr_to = Cluster.Protected && tr.Cluster.tr_at > kill then Some tr.Cluster.tr_at
          else None)
        (Cluster.transitions c)
    in
    let steady =
      match List.assoc_opt ref_rate rungs with Some g -> g.g_latencies | None -> [||]
    in
    let steady_base =
      Printf.sprintf "%d OK requests of the no-fault %.0f req/s rung" (Array.length steady)
        ref_rate
    in
    let fo =
      match protected_at with
      | None -> [||]
      | Some p -> lat_of reqs (fun q -> q.Client.due >= kill && q.Client.due <= p)
    in
    let fo_attempted =
      match protected_at with
      | None -> 0
      | Some p ->
          Array.fold_left (fun a q -> if q.Client.due >= kill && q.Client.due <= p then a + 1 else a) 0 reqs
    in
    let over =
      Array.fold_left (fun a q -> if ok q && latency q > limit_ms then a + 1 else a) 0 reqs
    in
    let nf = float_of_int n in
    let window_s = Time.to_sec_f ref_window in
    let tail = Stats.tail fo in
    let points =
      Array.fold_left
        (fun acc q ->
          let acc = if q.Client.first_byte >= 0 then q.Client.first_byte :: acc else acc in
          if q.Client.finished >= 0 && ok q then q.Client.finished :: acc else acc)
        [] reqs
    in
    let top_rate, top = List.nth rungs (List.length rungs - 1) in
    let sim =
      [
        metric "ops_per_s" "op/s"
          (Some (float_of_int ok_ /. window_s))
          ~base:
            (Printf.sprintf "%d OK of %d requests over %g s at %.0f req/s, kill included" ok_ n
               window_s ref_rate);
        metric "max_rate_rps" "req/s" max_rate
          ~base:
            (Printf.sprintf "highest of %s req/s with p99 <= %.0f ms, no failure, no growing backlog"
               (String.concat "/" (List.map (Printf.sprintf "%.0f") ladder))
               limit_ms);
        metric "latency_p50_ms" "ms" (percentile 50. steady) ~base:steady_base;
        metric "latency_p99_ms" "ms" (percentile 99. steady) ~base:steady_base;
        metric "fo_latency_tail_ms" "ms" (Option.map snd tail)
          ~base:
            (match tail with
            | Some (q, _) ->
                Printf.sprintf "p%g of %d OK requests due from the kill to Protected (%d attempted)" q
                  (Array.length fo) fo_attempted
            | None -> Printf.sprintf "%d OK requests due from the kill to Protected" (Array.length fo));
        metric "failed_ratio" "ratio" (Some (float_of_int failed /. nf))
          ~base:(Printf.sprintf "%d failed of %d attempted" failed n);
        metric "slo_miss_ratio" "ratio"
          (Some (float_of_int (failed + shed + over) /. nf))
          ~base:
            (Printf.sprintf "(%d failed + %d shed + %d over %.0f ms) of %d" failed shed over limit_ms n);
        metric "outage_ms" "ms" (outage_ms ~kill points) ~base:"kill to first response byte after it";
        metric "time_to_protected_ms" "ms"
          (Option.map (fun p -> Time.to_ms_f (p - kill)) protected_at)
          ~base:"kill to lifecycle Protected";
      ]
    in
    let problems =
      !(r.r_bad)
      @ List.concat_map (fun (_, g) -> !(g.g_run.r_bad)) rungs
      @ check_cluster c
      @ (if Cluster.failover_count c <> 1 then
           [ Printf.sprintf "%d failovers, expected exactly one" (Cluster.failover_count c) ]
         else [])
      @
      if Cluster.state c <> Cluster.Protected || Cluster.epoch c <> 1 then
        [
          Printf.sprintf "run ends %s in epoch %d, expected Protected in epoch 1"
            (Replica_set.lifecycle_label (Cluster.state c))
            (Cluster.epoch c);
        ]
      else []
    in
    let ops = float_of_int ok_ in
    let sp = { next = 0; all = [] } in
    let tapped =
      match r.r_tap with
      | None -> []
      | Some tap ->
          phase_spans sp r.r_slicer;
          Array.iter (request_spans sp ~conns:tap.Tap.conns) reqs;
          tap_metrics tap sp ~ops
    in
    let late =
      Array.fold_left
        (fun acc q -> if q.Client.started >= 0 then max acc (q.Client.started - q.Client.due) else acc)
        0 reqs
    in
    let layers =
      layer_counters r.r_eng ~ops ~server_ip:Client.server_ip r.r_slicer
      @ [
          metric "tcp.accept_overflow" "count" (Some (float_of_int top.g_overflow))
            ~base:(Printf.sprintf "SYNs dropped or reset at the top ladder rate, %.0f req/s" top_rate);
          metric "admission.shed_ratio" "ratio" (Some (float_of_int shed /. nf))
            ~base:(Printf.sprintf "%d 503s of %d attempted" shed n);
          metric "loadgen.late_ms" "ms" (Some (Time.to_ms_f late))
            ~base:"latest start of a request's process after its due time";
        ]
      @ cluster_metrics c r.r_slicer ~kill
    in
    {
      setup_s = r.r_setup;
      wall_s = List.fold_left (fun a (_, g) -> a +. g.g_run.r_wall) r.r_wall rungs;
      ops;
      attempted = List.fold_left (fun a (_, g) -> a + g.g_attempted) n rungs;
      failed = List.fold_left (fun a (_, g) -> a + g.g_failed) failed rungs;
      problems;
      notes = List.map (fun (_, g) -> g.g_note) rungs;
      sim;
      layers;
      tapped;
      spans = sp;
      events = count r.r_eng "engine.events_fired";
    }

  let setup_only ~seed =
    (boot ~seed ~rate:ref_rate ~window:ref_window ~kill:(Some kill) ~trace:false).r_setup
end

let absent name unit_ why = metric name unit_ None ~base:why

(* The seed picks an input length: [base] plus 0..63 extra [unit_]s. *)
let seeded_length ~seed ~salt ~base ~unit_ =
  base + (unit_ * Random.State.int (Random.State.make [| seed; salt |]) 64)

(* {1 pbzip2-stream} *)

module Pbz = struct
  let block_bytes = 25 * 1024
  let cap = Time.sec 600

  let params ~seed =
    {
      Pbzip2.default_params with
      Pbzip2.file_bytes = seeded_length ~seed ~salt:2 ~base:(mib 128) ~unit_:block_bytes;
      block_bytes;
    }

  (* Fig. 4's "FT-sustained": a 4,096-slot mailbox the secondary must keep
     draining. *)
  let config =
    {
      Cluster.default_config with
      Cluster.mailbox_config = { Mailbox.default_config with Mailbox.capacity = 4096 };
    }

  type run = {
    eng : Engine.t;
    slicer : slicer;
    cluster : Cluster.t option;
    tap : Tap.t option;
    blocks : int;
    done_at : Time.t option ref;
    in_order : bool ref;
    setup : float;
    mutable wall : float;
  }

  let boot ~seed ~replicated ~trace =
    let t0 = Hostclock.now () in
    let eng = Engine.create ~seed () in
    let s = slicer eng in
    cut s "boot";
    let p = params ~seed in
    let blocks = Pbzip2.block_count p in
    let next = ref 0 and in_order = ref true and done_at = ref None in
    (* The writer commits blocks in file order: each must arrive once,
       exactly when it is next. *)
    let on_block_done idx =
      if idx <> !next then in_order := false;
      incr next
    in
    let tap = if trace then Some (Tap.create eng) else None in
    let app api =
      let tapped = match tap with Some t -> Tap.wrap t api | None -> api in
      if (not replicated) || Kernel.name api.Api.kernel = "primary" then begin
        Pbzip2.run ~params:p ~on_block_done tapped;
        if !next <> blocks then in_order := false;
        done_at := Some (Engine.now eng)
      end
      else Pbzip2.run ~params:p tapped
    in
    let cluster =
      if replicated then Some (Cluster.create eng ~config ~app ())
      else begin
        ignore (Cluster.create_standalone eng ~app ());
        None
      end
    in
    Option.iter (tap_live tap) cluster;
    { eng; slicer = s; cluster; tap; blocks; done_at; in_order; setup = host_since t0; wall = 0. }

  let run ~seed ~replicated ~trace =
    let r = boot ~seed ~replicated ~trace in
    cut r.slicer "pre";
    let t1 = Hostclock.now () in
    run_until r.slicer ~cap ~finished:(fun () -> !(r.done_at) <> None);
    cut r.slicer "end";
    r.wall <- host_since t1;
    Option.iter Cluster.shutdown r.cluster;
    r

  let rate r =
    Option.map (fun t -> float_of_int r.blocks /. Time.to_sec_f t) !(r.done_at)

  let check name r =
    (if !(r.done_at) = None then [ name ^ ": compression did not finish" ] else [])
    @ (if not !(r.in_order) then [ name ^ ": blocks not committed once each, in order" ] else [])
    @ match r.cluster with Some c -> check_cluster c | None -> []

  let iteration ~seed ~trace =
    let ft = run ~seed ~replicated:true ~trace in
    let base = run ~seed ~replicated:false ~trace in
    let problems = check "replicated" ft @ check "unreplicated" base in
    let ops = float_of_int ft.blocks in
    let ft_rate = rate ft and base_rate = rate base in
    let failed = if problems = [] then 0 else ft.blocks in
    let sim =
      [
        metric "ops_per_s" "op/s" ft_rate
          ~base:(Printf.sprintf "%d blocks of %d B, replicated" ft.blocks block_bytes);
        metric "ft_ratio" "ratio"
          (Option.bind ft_rate (fun f -> Option.bind base_rate (fun b -> ratio f b)))
          ~base:
            (Printf.sprintf "replicated %s / unreplicated %s blocks/s" (show ft_rate)
               (show base_rate));
        metric "failed_ratio" "ratio"
          (Some (if problems = [] then 0. else 1.))
          ~base:"1 if the output check fails";
      ]
    in
    let sp = { next = 0; all = [] } in
    let tapped =
      match ft.tap with
      | Some tap ->
          phase_spans sp ft.slicer;
          tap_metrics tap sp ~ops
      | None -> []
    in
    let c = Option.get ft.cluster in
    let layers =
      layer_counters ft.eng ~ops ~server_ip:Client.server_ip ft.slicer
      @ [
          absent "tcp.accept_overflow" "count" "no network";
          absent "admission.shed_ratio" "ratio" "no network";
          absent "loadgen.late_ms" "ms" "batch job, no load generator";
        ]
      @ cluster_metrics c ft.slicer ~kill:0
    in
    {
      setup_s = ft.setup;
      wall_s = ft.wall +. base.wall;
      ops;
      attempted = ft.blocks + base.blocks;
      failed;
      problems;
      notes = [];
      sim;
      layers;
      tapped;
      spans = sp;
      events = count ft.eng "engine.events_fired";
    }

  let setup_only ~seed = (boot ~seed ~replicated:true ~trace:false).setup
end

(* {1 bulk-failover} *)

module Bulk = struct
  let chunk_bytes = 64 * 1024
  let first_op = Time.ms 200
  let cap = Time.sec 60

  let params ~seed =
    {
      Fileserver.default_params with
      Fileserver.file_bytes = seeded_length ~seed ~salt:3 ~base:(mib 256) ~unit_:chunk_bytes;
      chunk_bytes;
    }

  (* Mid-transfer: 1.0 s into the download plus a seeded 0..100 ms, so the
     kill lands at a different point of the heart-beat cycle per seed. *)
  let kill ~seed =
    first_op + Time.sec 1
    + Time.us (Random.State.int (Random.State.make [| seed; 4 |]) 100_000)

  type run = {
    eng : Engine.t;
    slicer : slicer;
    cluster : Cluster.t option;
    tap : Tap.t option;
    dl : Client.download;
    file_bytes : int;
    setup : float;
    mutable wall : float;
  }

  let boot ~seed ~replicated ~trace =
    let t0 = Hostclock.now () in
    let eng = Engine.create ~seed () in
    let s = slicer eng in
    cut s "boot";
    let link = client_link eng in
    let p = params ~seed in
    let tap = if trace then Some (Tap.create eng) else None in
    let app api =
      Fileserver.run ~params:p (match tap with Some t -> Tap.wrap t api | None -> api)
    in
    let cluster =
      if replicated then begin
        let c = Cluster.create eng ~link:(Link.endpoint_a link) ~app () in
        tap_live tap c;
        Cluster.kill c ~role:Replica_set.Primary ~at:(kill ~seed);
        Some c
      end
      else begin
        ignore (Cluster.create_standalone eng ~link:(Link.endpoint_a link) ~app ());
        None
      end
    in
    let host = Host.create eng ~ip:Client.client_ip (Link.endpoint_b link) in
    let dl = Client.start_download host eng ~at:first_op in
    run_to s first_op;
    {
      eng;
      slicer = s;
      cluster;
      tap;
      dl;
      file_bytes = p.Fileserver.file_bytes;
      setup = host_since t0;
      wall = 0.;
    }

  let run ~seed ~replicated ~trace =
    let r = boot ~seed ~replicated ~trace in
    let s = r.slicer in
    cut s "pre";
    let t1 = Hostclock.now () in
    (match r.cluster with
    | Some c ->
        run_to s (kill ~seed);
        cut s "failover";
        run_through_failover s c ~reprotect:false ~cap
    | None -> ());
    run_until s ~cap ~finished:(fun () -> r.dl.Client.d_req.Client.finished >= 0);
    cut s "end";
    r.wall <- host_since t1;
    Option.iter Cluster.shutdown r.cluster;
    r

  let rx r = Array.of_list (List.rev r.dl.Client.d_req.Client.rx)

  (* Bytes per second between two receipts. *)
  let rate (o0, t0) (o1, t1) =
    if t1 > t0 then Some (float_of_int (o1 - o0) /. Time.to_sec_f (t1 - t0)) else None

  let check name r =
    let d = r.dl in
    let want = Payload.stream_hash 0 [ Payload.zeroes r.file_bytes ] in
    (if d.Client.d_length <> r.file_bytes || d.Client.d_bytes <> r.file_bytes then
       [
         Printf.sprintf "%s: %d of %d bytes received (announced %d)" name d.Client.d_bytes
           r.file_bytes d.Client.d_length;
       ]
     else if d.Client.d_hash <> want then [ name ^ ": content hash mismatch" ]
     else [])
    @
    match r.cluster with
    | None -> []
    | Some c ->
        check_cluster c
        @
        if Cluster.failover_count c <> 1 then
          [ Printf.sprintf "%d failovers, expected exactly one" (Cluster.failover_count c) ]
        else []

  let iteration ~seed ~trace =
    let ft = run ~seed ~replicated:true ~trace in
    let base = run ~seed ~replicated:false ~trace in
    let checked = [ check "replicated" ft; check "unreplicated" base ] in
    let problems = List.concat checked in
    let k = kill ~seed in
    let mib_of b = float_of_int b /. float_of_int (mib 1) in
    let req = ft.dl.Client.d_req in
    let elapsed = Time.to_sec_f (req.Client.finished - req.Client.due) in
    let ops = mib_of ft.dl.Client.d_bytes in
    let ft_rx = rx ft and base_rx = rx base in
    let pre_kill =
      let before = List.filter (fun (_, t) -> t <= k) (Array.to_list ft_rx) in
      match before with
      | [] -> None
      | _ -> rate ft_rx.(0) (List.nth before (List.length before - 1))
    in
    let unrep =
      if Array.length base_rx > 1 then rate base_rx.(0) base_rx.(Array.length base_rx - 1) else None
    in
    let failed = List.length (List.filter (( <> ) []) checked) in
    let sim =
      [
        metric "ops_per_s" "op/s"
          (if req.Client.finished >= 0 then ratio ops elapsed else None)
          ~base:(Printf.sprintf "op = 1 MiB; %.2f MiB delivered in %.3f s, failover included" ops elapsed);
        metric "ft_ratio" "ratio"
          (Option.bind pre_kill (fun f -> Option.bind unrep (fun b -> ratio f b)))
          ~base:
            (Printf.sprintf "replicated pre-kill %s / unreplicated %s B/s" (show pre_kill) (show unrep));
        metric "failed_ratio" "ratio"
          (Some (if problems = [] then 0. else 1.))
          ~base:"1 if the output check fails";
        metric "outage_ms" "ms"
          (outage_ms ~kill:k (Array.to_list (Array.map snd ft_rx)))
          ~base:"kill to first payload byte after it";
      ]
    in
    let sp = { next = 0; all = [] } in
    let tapped =
      match ft.tap with
      | Some tap ->
          phase_spans sp ft.slicer;
          request_spans sp ~conns:tap.Tap.conns req;
          tap_metrics tap sp ~ops
      | None -> []
    in
    let c = Option.get ft.cluster in
    let ovf =
      count ft.eng (Printf.sprintf "tcp.%s.accept_overflow_drop" Client.server_ip)
      + count ft.eng (Printf.sprintf "tcp.%s.accept_overflow_rst" Client.server_ip)
    in
    let layers =
      layer_counters ft.eng ~ops ~server_ip:Client.server_ip ft.slicer
      @ [
          metric "tcp.accept_overflow" "count" (Some (float_of_int ovf)) ~base:"SYNs dropped or reset";
          absent "admission.shed_ratio" "ratio" "admission control off";
          metric "loadgen.late_ms" "ms"
            (Some (Time.to_ms_f (req.Client.started - req.Client.due)))
            ~base:"download start after its due time";
        ]
      @ cluster_metrics c ft.slicer ~kill:k
    in
    {
      setup_s = ft.setup;
      wall_s = ft.wall +. base.wall;
      ops;
      attempted = 2;
      failed;
      problems;
      notes = [];
      sim;
      layers;
      tapped;
      spans = sp;
      events = count ft.eng "engine.events_fired";
    }

  let setup_only ~seed = (boot ~seed ~replicated:true ~trace:false).setup
end
