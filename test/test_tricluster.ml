(* Tests for the three-replica configuration of {!Cluster} (paper §6
   extension). *)

open Ftsim_sim
open Ftsim_hw
open Ftsim_netstack
open Ftsim_ftlinux

let small4 =
  { Topology.sockets = 4; cores_per_socket = 2; numa_nodes = 4;
    ram_bytes = 8 * 1024 * 1024 * 1024 }

let test_config =
  {
    Cluster.default_config with
    topology = small4;
    hb_period = Time.ms 5;
    hb_timeout = Time.ms 25;
    driver_load_time = Time.ms 150;
    replicas = 3;
  }

let gbit_link eng = Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) ()

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

(* A paced client: sends [messages] one at a time, awaiting each echo. *)
(* The backup slot that won the newest takeover. *)
let winner t =
  match Cluster.takeovers t with
  | { Cluster.winner; _ } :: _ -> winner
  | [] -> None

let spawn_client _eng client messages =
  let result = Ivar.create () in
  ignore
    (Host.spawn client "client" (fun () ->
         let c = Tcp.connect (Host.stack client) ~host:"10.0.0.1" ~port:80 in
         let out = Buffer.create 64 in
         List.iter
           (fun msg ->
             Tcp.send c (Payload.of_string msg);
             let want = String.length msg in
             let got = ref 0 in
             while !got < want do
               match Tcp.recv c ~max:4096 with
               | [] -> failwith "eof"
               | cs ->
                   got := !got + Payload.total_len cs;
                   Buffer.add_string out (Payload.concat_to_string cs)
             done;
             Engine.sleep (Time.ms 4))
           messages;
         Tcp.close c;
         Ivar.fill result (Buffer.contents out)));
  result

let test_triple_replicates_to_both () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let t =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
      ~app:echo_app ()
  in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let result = spawn_client eng client [ "one "; "two "; "three" ] in
  Engine.run ~until:(Time.sec 5) eng;
  Cluster.shutdown t;
  Alcotest.(check (option string)) "echo works" (Some "one two three")
    (Ivar.peek result);
  Alcotest.(check bool) "both backups received the log" true
    (Cluster.backup_received_lsn t 0 > 5
    && Cluster.backup_received_lsn t 1 > 5);
  Alcotest.(check bool) "logs in step" true
    (Cluster.backup_received_lsn t 0 = Cluster.backup_received_lsn t 1)

let test_triple_primary_failover () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let t =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
      ~app:echo_app ()
  in
  Cluster.kill t ~role:Replica_set.Primary ~at:(Time.ms 60);
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let messages = List.init 25 (fun i -> Printf.sprintf "m%02d|" i) in
  let result = spawn_client eng client messages in
  Engine.run ~until:(Time.sec 20) eng;
  Cluster.shutdown t;
  Alcotest.(check (option string)) "stream exactly once across failover"
    (Some (String.concat "" messages))
    (Ivar.peek result);
  (match Cluster.takeovers t with
  | [ { winner = Some w; _ } ] ->
      Alcotest.(check bool) "a backup won" true (w = 0 || w = 1)
  | _ -> Alcotest.fail "no winner");
  Alcotest.(check bool) "failover completed" true
    (Cluster.failover_completed_at t <> None)

let test_triple_double_sequential_failure () =
  (* Backup 0 dies first; the primary continues replicated to backup 1;
     later the primary dies too and backup 1 takes over alone. *)
  let eng = Engine.create () in
  let link = gbit_link eng in
  let t =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
      ~app:echo_app ()
  in
  Cluster.kill t ~role:Replica_set.Backup ~at:(Time.ms 40);
  Cluster.kill t ~role:Replica_set.Primary ~at:(Time.ms 160);
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let messages = List.init 30 (fun i -> Printf.sprintf "d%02d|" i) in
  let result = spawn_client eng client messages in
  Engine.run ~until:(Time.sec 20) eng;
  Cluster.shutdown t;
  Alcotest.(check (option string)) "stream survives two failures"
    (Some (String.concat "" messages))
    (Ivar.peek result);
  Alcotest.(check (option int)) "the surviving backup won" (Some 1)
    (winner t);
  Alcotest.(check bool) "backup 0 is down" true
    (Partition.is_halted (Cluster.backup_partition t 0))

(* A chaos fault aimed at backup slot 1 is resolved when it fires and
   lands on backup 1 alone. *)
let test_triple_inject_backup_slot () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let t =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
      ~app:echo_app ()
  in
  let primary = Cluster.primary_partition t in
  Cluster.inject t ~target:(Chaos.T_backup 1) ~at:(Time.ms 60) ~disrupts:false
    Fault.Core_failstop;
  let halted () =
    List.map Partition.is_halted
      [ primary; Cluster.backup_partition t 0; Cluster.backup_partition t 1 ]
  in
  Engine.run ~until:(Time.ms 59) eng;
  Alcotest.(check (list bool)) "nothing halted before the fault fires"
    [ false; false; false ] (halted ());
  Engine.run ~until:(Time.ms 61) eng;
  Alcotest.(check (list bool)) "backup 1 halted when it fired"
    [ false; false; true ] (halted ());
  Cluster.shutdown t

let test_triple_deterministic () =
  let run () =
    let eng = Engine.create ~seed:99 () in
    let link = gbit_link eng in
    let t =
      Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
        ~app:echo_app ()
    in
    Cluster.kill t ~role:Replica_set.Primary ~at:(Time.ms 60);
    let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
    let result =
      spawn_client eng client (List.init 10 (fun i -> Printf.sprintf "x%d." i))
    in
    Engine.run ~until:(Time.sec 15) eng;
    Cluster.shutdown t;
    (Ivar.peek result, winner t,
     Cluster.backup_received_lsn t 0, Cluster.backup_received_lsn t 1)
  in
  Alcotest.(check bool) "two runs bit-identical" true (run () = run ())

(* The failover sequence is the two-replica one: the same four pinned,
   contiguous phase spans summing to the halt-to-live time, and the same
   lifecycle bookkeeping. *)
let test_triple_failover_phases () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let t =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
      ~app:echo_app ()
  in
  Cluster.kill t ~role:Replica_set.Primary ~at:(Time.ms 60);
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let result =
    spawn_client eng client (List.init 20 (fun i -> Printf.sprintf "p%02d|" i))
  in
  Engine.run ~until:(Time.sec 20) eng;
  Cluster.shutdown t;
  Alcotest.(check bool) "client finished" true (Ivar.is_filled result);
  let evs = Evlog.events (Engine.evlog eng) in
  let phase name =
    match Evlog.Query.span_of ~comp:"ft.cluster" ~name evs with
    | Some be -> be
    | None -> Alcotest.failf "phase span %s missing from trace" name
  in
  let d0, d1 = phase "failover.detect" in
  let r0, r1 = phase "failover.drain_replay" in
  let v0, v1 = phase "failover.driver_reload" in
  let g0, g1 = phase "failover.golive" in
  Alcotest.(check bool) "phases are contiguous" true
    (d1 = r0 && r1 = v0 && v1 = g0);
  (match Cluster.takeovers t with
  | [ { halted = Some halt; completed = Some live; _ } ] ->
      Alcotest.(check int) "detect begins at the halt" halt d0;
      Alcotest.(check int) "golive ends at completion" live g1;
      let sum = d1 - d0 + (r1 - r0) + (v1 - v0) + (g1 - g0) in
      Alcotest.(check bool) "phase durations sum to measured recovery" true
        (abs (live - halt - sum) <= Time.ms 1)
  | _ -> Alcotest.fail "failover did not run");
  Alcotest.(check int) "one failover" 1 (Cluster.failover_count t);
  Alcotest.(check bool) "Protected -> Degraded" true
    (List.map
       (fun tr -> (tr.Cluster.tr_from, tr.Cluster.tr_to))
       (Cluster.transitions t)
    = [ (Cluster.Protected, Cluster.Degraded) ])

let test_rejects_unsupported_shapes () =
  let rejects what config =
    match Cluster.create (Engine.create ()) ~config ~app:echo_app () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "one replica" { test_config with replicas = 1 };
  rejects "four replicas" { test_config with replicas = 4 };
  rejects "three replicas with re-protection"
    { test_config with reprotect = true };
  rejects "three replicas with an asymmetric split"
    { test_config with split = `Asymmetric 4 };
  rejects "three replicas on 2 NUMA nodes"
    { test_config with topology = Topology.small }

let () =
  Alcotest.run "tricluster"
    [
      ( "tricluster",
        [
          Alcotest.test_case "replicates to both" `Quick
            test_triple_replicates_to_both;
          Alcotest.test_case "primary failover" `Quick test_triple_primary_failover;
          Alcotest.test_case "double sequential failure" `Quick
            test_triple_double_sequential_failure;
          Alcotest.test_case "chaos fault on backup slot 1" `Quick
            test_triple_inject_backup_slot;
          Alcotest.test_case "deterministic" `Quick test_triple_deterministic;
          Alcotest.test_case "failover phases" `Quick
            test_triple_failover_phases;
          Alcotest.test_case "rejects unsupported shapes" `Quick
            test_rejects_unsupported_shapes;
        ] );
    ]
