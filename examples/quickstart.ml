(* Quickstart: replicate a small multi-threaded application on a partitioned
   machine, kill the primary partition, and watch the secondary finish the
   job.

   Run with:  dune exec examples/quickstart.exe *)

open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel
open Ftsim_ftlinux

let () =
  (* A simulated world, deterministic given its seed. *)
  let eng = Engine.create ~seed:1 () in

  (* The application: four worker threads fill a shared tally under a
     pthread mutex.  Note that the code uses only the transparent Api —
     nothing about it is replication-aware. *)
  let report = ref [] in
  let app (api : Api.t) =
    let pt = api.Api.pt in
    let m = Pthread.mutex_create pt in
    let tally = ref 0 in
    let workers =
      List.init 4 (fun w ->
          api.Api.thread.spawn (Printf.sprintf "worker-%d" w) (fun () ->
              for _ = 1 to 250 do
                api.Api.thread.compute (Time.us 200);
                Pthread.mutex_lock pt m;
                incr tally;
                Pthread.mutex_unlock pt m
              done))
    in
    List.iter api.Api.thread.join workers;
    let where = Kernel.name api.Api.kernel in
    Printf.printf "[%-9s] finished with tally = %d at t=%s\n%!" where !tally
      (Time.to_string (Engine.now eng));
    report := (where, !tally) :: !report
  in

  (* An 8-core machine split into two fault-independent partitions, each
     booting its own kernel; the app runs replicated across them. *)
  let config =
    { Cluster.default_config with Cluster.topology = Topology.small }
  in
  let cluster = Cluster.create eng ~config ~app () in
  (* The takeover moves the primary role: keep the original primary. *)
  let primary = Cluster.primary_partition cluster in

  (* Fail-stop the primary partition mid-run. *)
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 20);

  Engine.run ~until:(Time.sec 5) eng;
  Cluster.shutdown cluster;

  Printf.printf "\nprimary halted: %b; failover completed: %b\n"
    (Partition.is_halted primary)
    (Cluster.failover_completed_at cluster <> None);
  match List.assoc_opt "secondary" !report with
  | Some tally ->
      Printf.printf
        "the secondary replica completed all 1000 increments: %b\n"
        (tally = 1000)
  | None -> Printf.printf "secondary did not finish!\n"
