open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux

let server_ip = "10.0.0.1"
let client_ip = "10.0.0.9"

let fast_failover =
  {
    Cluster.default_config with
    topology = Topology.small;
    hb_period = Time.ms 5;
    hb_timeout = Time.ms 25;
    driver_load_time = Time.ms 200;
    lagmon = Some Lagmon.default_config;
  }

type server = Replicated of Cluster.config | Plain of int option

type load =
  | No_client
  | Ab of { target : string; concurrency : int; start : Time.t option }
  | Ol of {
      target : string;
      rate : float;
      conns : int;
      seed : int;
      start : Time.t;
    }
  | Wget of string
  | Client of (Host.t -> unit)

type step = Until of Time.t | For of Time.t | Done of Time.t

type env = {
  cluster : Cluster.t option;
  kernel : Kernel.t;
  link : Link.t option;
  ops : unit -> int;
}

type t = {
  server : server;
  app : Api.app;
  load : load;
  kills : (Replica_set.role * Time.t) list;
  steps : step list;
  finished : unit -> bool;
  drain : Time.t;
  seeded_link : bool;
  setup : env -> unit;
}

type client =
  | No_load
  | Ab_load of Loadgen.ab
  | Ol_load of Loadgen.ol
  | Wget_load of Loadgen.wget
  | Custom_load

(* The default stop test of [Done] steps reads the started load, which does
   not exist yet when the scenario is made. *)
let load_finished = function
  | Wget_load w -> Ivar.is_filled w.Loadgen.total
  | Ol_load ol -> Ivar.is_filled (Loadgen.ol_done ol)
  | No_load | Ab_load _ | Custom_load -> false

let never () = false

let make ?(kills = []) ?(finished = never) ?(drain = 0) ?(seeded_link = false)
    ?(setup = ignore) server app load steps =
  { server; app; load; kills; steps; finished; drain; seeded_link; setup }

type mark = { at : Time.t; ops : int; msgs : int; bytes : int }

type report = {
  env : env;
  client : client;
  marks : mark list;
  completions : (Time.t * Time.t) list;
  window : (Time.t * Time.t) option;
  bounds_ok : bool;
  pre : Metrics.Hist.t;
  fo : Metrics.Hist.t;
  post : Metrics.Hist.t;
}

(* Step the engine in 100 ms slices until [stop ()] or the simulated cap,
   so runs do not spin on heart-beat timers after the workload finishes.
   An engine with nothing left to fire can never reach the cap ([run]
   does not move the clock then), so the loop ends there too. *)
let drive eng ~cap ~stop =
  let rec loop () =
    if
      (not (stop ()))
      && Engine.now eng < cap
      && Engine.pending_events eng > 0
    then begin
      Engine.run ~until:(min cap (Engine.now eng + Time.ms 100)) eng;
      loop ()
    end
  in
  loop ()

(* The failover window is not guessed from histogram windows: its bounds
   are the pinned failover.* Evlog spans (detect begin .. golive end), and
   completions are classified by exact time comparison against them. *)
let failover_window eng =
  let evs = Evlog.events (Engine.evlog eng) in
  match
    ( Evlog.Query.span_of ~comp:"ft.cluster" ~name:"failover.detect" evs,
      Evlog.Query.span_of ~comp:"ft.cluster" ~name:"failover.golive" evs )
  with
  | Some (detect_begin, _), Some (_, golive_end) ->
      Some (detect_begin, golive_end)
  | _ -> None

let split ~window completions =
  let pre = Metrics.Hist.create ()
  and fo = Metrics.Hist.create ()
  and post = Metrics.Hist.create () in
  List.iter
    (fun (at, latency) ->
      let h =
        match window with
        | Some (lo, hi) -> if at < lo then pre else if at > hi then post else fo
        | None -> pre
      in
      Metrics.Hist.record h (Time.to_ms_f latency))
    completions;
  (pre, fo, post)

let run eng sc =
  let link =
    match sc.load with
    | No_client -> None
    | _ ->
        let seed_split =
          if sc.seeded_link then Some (Engine.prng eng) else None
        in
        Some
          (Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100)
             ?seed_split ())
  in
  let ep = Option.map Link.endpoint_a link in
  let cluster, kernel =
    match sc.server with
    | Replicated config ->
        let c = Cluster.create eng ~config ?link:ep ~app:sc.app () in
        List.iter (fun (role, at) -> Cluster.kill c ~role ~at) sc.kills;
        (Some c, Cluster.primary_kernel c)
    | Plain cores ->
        (None, Cluster.create_standalone eng ?cores ?link:ep ~app:sc.app ())
  in
  let ops = ref 0 and completions = ref [] in
  let env = { cluster; kernel; link; ops = (fun () -> !ops) } in
  sc.setup env;
  let on_complete ~at ~latency =
    incr ops;
    completions := (at, latency) :: !completions
  in
  let client =
    match link with
    | None -> No_load
    | Some l -> (
        let host = Host.create eng ~ip:client_ip (Link.endpoint_b l) in
        match sc.load with
        | No_client -> No_load
        | Ab { target; concurrency; start } ->
            Option.iter (fun until -> Engine.run ~until eng) start;
            Ab_load
              (Loadgen.ab_start host ~server:server_ip ~port:80 ~target
                 ~concurrency ~on_complete ())
        | Ol { target; rate; conns; seed; start } ->
            Engine.run ~until:start eng;
            Ol_load
              (Loadgen.ol_start host ~server:server_ip ~port:80 ~target ~rate
                 ~conns ~poisson:true ~seed ~on_complete ())
        | Wget target ->
            Wget_load
              (Loadgen.wget_start host ~server:server_ip ~port:80 ~target ())
        | Client f ->
            f host;
            Custom_load)
  in
  let finished () = sc.finished () || load_finished client in
  let mark () =
    let msgs, bytes =
      match cluster with
      | Some c -> (Cluster.traffic_msgs c, Cluster.traffic_bytes c)
      | None -> (0, 0)
    in
    { at = Engine.now eng; ops = !ops; msgs; bytes }
  in
  let marks =
    List.map
      (fun step ->
        (match step with
        | Until until -> Engine.run ~until eng
        | For d -> Engine.run ~until:(Engine.now eng + d) eng
        | Done cap -> drive eng ~cap ~stop:finished);
        mark ())
      sc.steps
  in
  (match client with Ab_load ab -> Loadgen.ab_stop ab | _ -> ());
  Option.iter Cluster.shutdown cluster;
  if sc.drain > 0 then Engine.run ~until:(Engine.now eng + sc.drain) eng;
  let completions = List.rev !completions in
  (* Only completions are split, and without a takeover there is no
     [failover.golive] span to find: skip the scan of the event log. *)
  let window =
    match (client, cluster) with
    | (Ab_load _ | Ol_load _), Some c when Cluster.failover_count c > 0 ->
        failover_window eng
    | _ -> None
  in
  (* The window comes from the first pair of spans, so it belongs to the
     first takeover. *)
  let bounds_ok =
    let first c = List.nth_opt (List.rev (Cluster.takeovers c)) 0 in
    match (window, Option.bind cluster first) with
    | Some (lo, hi), Some { halted = Some h; completed = Some c; _ } ->
        lo = h && hi = c
    | None, None -> true
    | _ -> false
  in
  let pre, fo, post = split ~window completions in
  { env; client; marks; completions; window; bounds_ok; pre; fo; post }

let run_to_completion eng ?kills server ~cap body =
  let cluster = ref None and t_done = ref None in
  (* The serving copy is the primary's, which after a takeover is the
     promoted backup's.  Bodies only run once the engine does, after
     [setup] has recorded the cluster. *)
  let serving (api : Api.t) =
    match !cluster with
    | None -> true
    | Some c -> api.Api.kernel == Cluster.primary_kernel c
  in
  let app api =
    body ~serving:(serving api) api;
    if serving api then t_done := Some (Engine.now eng)
  in
  let r =
    run eng
      (make ?kills
         ~finished:(fun () -> !t_done <> None)
         ~setup:(fun env -> cluster := env.cluster)
         server app No_client [ Done cap ])
  in
  (!t_done, r)

let quantile h q =
  if Metrics.Hist.count h = 0 then None else Some (Metrics.Hist.quantile h q)

let measured r =
  match r.marks with
  | [] -> invalid_arg "Scenario.measured: no steps"
  | m0 :: _ ->
      let m1 = List.nth r.marks (List.length r.marks - 1) in
      {
        at = m1.at - m0.at;
        ops = m1.ops - m0.ops;
        msgs = m1.msgs - m0.msgs;
        bytes = m1.bytes - m0.bytes;
      }

let ab_stats r =
  match r.client with
  | Ab_load ab -> Loadgen.ab_stats ab
  | _ -> invalid_arg "Scenario.ab_stats: no ApacheBench load"

let ol r =
  match r.client with
  | Ol_load ol -> ol
  | _ -> invalid_arg "Scenario.ol: no open-loop load"

let wget r =
  match r.client with
  | Wget_load w -> w
  | _ -> invalid_arg "Scenario.wget: no download"

let cluster r =
  match r.env.cluster with
  | Some c -> c
  | None -> invalid_arg "Scenario.cluster: plain server"
