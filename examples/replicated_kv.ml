(* A replicated key-value cache (memcached-style) surviving a primary crash.

   A client stores keys, the primary partition fail-stops, and the client
   keeps reading — the promoted secondary serves every key from its
   replayed in-memory store over the same TCP connection.

   Run with:  dune exec examples/replicated_kv.exe *)

open Ftsim_sim
open Ftsim_netstack
open Ftsim_ftlinux
open Ftsim_apps

let () =
  let eng = Engine.create ~seed:3 () in
  let link = Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) () in
  let config =
    { Cluster.default_config with Cluster.driver_load_time = Time.ms 500 }
  in
  let cluster =
    Cluster.create eng ~config ~link:(Link.endpoint_a link)
      ~app:(fun api -> Memcached.server api)
      ()
  in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  (* The takeover moves the primary role: keep the original primary. *)
  let primary = Cluster.primary_partition cluster in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 80);

  let finished = Ivar.create () in
  ignore
    (Host.spawn client "kv-client" (fun () ->
         let c = Tcp.connect (Host.stack client) ~host:"10.0.0.1" ~port:11211 in
         let buf = Buffer.create 256 in
         let refill () =
           match Tcp.recv c ~max:4096 with
           | [] -> failwith "server closed"
           | cs -> Buffer.add_string buf (Payload.concat_to_string cs)
         in
         let take n =
           while Buffer.length buf < n do refill () done;
           let s = Buffer.contents buf in
           Buffer.clear buf;
           Buffer.add_string buf (String.sub s n (String.length s - n));
           String.sub s 0 n
         in
         let take_line () =
           let rec find () =
             let s = Buffer.contents buf in
             match String.index_opt s '\n' with
             | Some i ->
                 Buffer.clear buf;
                 Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
                 String.trim (String.sub s 0 i)
             | None ->
                 refill ();
                 find ()
           in
           find ()
         in
         (* Store 20 keys before and across the crash. *)
         for i = 1 to 20 do
           let v = Printf.sprintf "value-%04d" i in
           Tcp.send c
             (Payload.of_string
                (Printf.sprintf "set key%d %d\r\n%s" i (String.length v) v));
           let r = take_line () in
           assert (r = "STORED");
           Engine.sleep (Time.ms 8)
         done;
         Printf.printf "client: 20 keys stored (crash happened at t=80ms)\n%!";
         (* Read them all back — by now only the secondary is alive. *)
         let ok = ref 0 in
         for i = 1 to 20 do
           Tcp.send c (Payload.of_string (Printf.sprintf "get key%d\r\n" i));
           match String.split_on_char ' ' (take_line ()) with
           | [ "VALUE"; n ] ->
               let v = take (int_of_string n) in
               if v = Printf.sprintf "value-%04d" i then incr ok
           | _ -> ()
         done;
         Printf.printf "client: %d/20 keys survived the failover\n%!" !ok;
         Ivar.fill finished !ok));
  let rec drive () =
    if (not (Ivar.is_filled finished)) && Engine.now eng < Time.sec 30 then begin
      Engine.run ~until:(Engine.now eng + Time.ms 100) eng;
      drive ()
    end
  in
  drive ();
  Cluster.shutdown cluster;
  Printf.printf "primary halted: %b, failover done: %b\n"
    (Ftsim_hw.Partition.is_halted primary)
    (Cluster.failover_completed_at cluster <> None)
