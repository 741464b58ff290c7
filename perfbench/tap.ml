(* Outside-in layer tap: wraps the [Api.t] record an application closure
   receives, on every replica, and times each net/fs/thread call on the
   simulated clock.  The wrapper only reads state — the clock, the running
   process and the cluster's current primary — and never sleeps, spawns or
   arms a timer, so a tapped run fires exactly the events an untapped run
   fires (the benchmark checks its simulated results are byte-identical).

   What it keeps:
   - per replica, the return time of every call, per thread name and call
     index — the replay-lag pairing (replica k's n-th call of a thread
     against replica k-1's);
   - per accepted connection, the accept return, the live replica's sends
     (return time and stream offset) and the computes made while serving
     it — the server half of the request spans, joined to the client by
     port;
   - every compute on the live replica: its span and the CPU it asked. *)

open Ftsim_sim
open Ftsim_netstack
open Ftsim_ftlinux

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 16 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

type conn = {
  replica : int;
  mutable port : int;
      (** client port, the 4-tuple half that names the request; read once
          the socket is real (a replaying backup's sockets are shadows) *)
  accepted : Time.t;
  accepted_live : bool;
  mutable sent : int;  (** stream offset after the last send *)
  mutable last_send : Time.t;
  mutable sends : (int * Time.t) list;
      (** live sends as (offset after, return time), newest first *)
  mutable computes : (Time.t * Time.t) list;  (** newest first *)
}

type replica = {
  index : int;
  calls : (string, Vec.t) Hashtbl.t;  (** thread name -> call return times *)
  names : (int, string) Hashtbl.t;  (** pid -> thread name *)
  current : (int, conn) Hashtbl.t;  (** pid -> connection last touched *)
  mutable open_ : (Api.sock * conn) list;
}

type t = {
  eng : Engine.t;
  mutable live : Ftsim_kernel.Kernel.t -> bool;
  mutable replicas : replica list;  (** newest first *)
  mutable conns : conn list;
  computes : Vec.t;  (** live compute wait (span minus CPU asked), ns *)
  mutable compute_asked : Time.t;  (** live CPU asked, summed *)
}

let create eng =
  {
    eng;
    live = (fun _ -> true);
    replicas = [];
    conns = [];
    computes = Vec.create ();
    compute_asked = 0;
  }

(* Only the cluster knows which kernel is primary; it is created after the
   app closure, so the workload installs this test once it exists. *)
let set_live t f = t.live <- f

let wrap t (api : Api.t) : Api.t =
  let r =
    {
      index = List.length t.replicas;
      calls = Hashtbl.create 64;
      names = Hashtbl.create 64;
      current = Hashtbl.create 64;
      open_ = [];
    }
  in
  t.replicas <- r :: t.replicas;
  let now () = Engine.now t.eng in
  let pid () = Engine.pid (Engine.self ()) in
  let live () = t.live api.Api.kernel in
  let returned () =
    let name = Option.value (Hashtbl.find_opt r.names (pid ())) ~default:"main" in
    let v =
      match Hashtbl.find_opt r.calls name with
      | Some v -> v
      | None ->
          let v = Vec.create () in
          Hashtbl.replace r.calls name v;
          v
    in
    Vec.push v (now ())
  in
  let conn_of sock =
    match List.assq_opt sock r.open_ with
    | Some c as found ->
        (match sock.Api.si with
        | Api.S_real tc when c.port < 0 -> c.port <- (Tcp.remote_addr tc).Packet.port
        | _ -> ());
        found
    | None -> None
  in
  let touch sock =
    match conn_of sock with
    | Some c -> Hashtbl.replace r.current (pid ()) c
    | None -> Hashtbl.remove r.current (pid ())
  in
  let net = api.Api.net and th = api.Api.thread and fs = api.Api.fs in
  let accept l =
    let res = net.Api.accept l in
    (match res with
    | Ok sock ->
        let c =
          {
            replica = r.index;
            port = -1;
            accepted = now ();
            accepted_live = live ();
            sent = 0;
            last_send = now ();
            sends = [];
            computes = [];
          }
        in
        r.open_ <- (sock, c) :: r.open_;
        t.conns <- c :: t.conns;
        touch sock
    | Error _ -> ());
    returned ();
    res
  in
  let send sock chunk =
    let res = net.Api.send sock chunk in
    (match (res, conn_of sock) with
    | Ok (), Some c ->
        c.sent <- c.sent + Payload.chunk_len chunk;
        if live () then begin
          c.last_send <- now ();
          match sock.Api.si with
          | Api.S_real _ -> c.sends <- (c.sent, now ()) :: c.sends
          | Api.S_shadow _ -> ()
        end
    | _ -> ());
    touch sock;
    returned ();
    res
  in
  let recv sock ~max =
    let res = net.Api.recv sock ~max in
    touch sock;
    returned ();
    res
  in
  let close sock =
    net.Api.close sock;
    r.open_ <- List.filter (fun (s, _) -> s != sock) r.open_;
    Hashtbl.remove r.current (pid ());
    returned ()
  in
  let compute d =
    let t0 = now () in
    th.Api.compute d;
    let t1 = now () in
    if live () then begin
      Vec.push t.computes (t1 - t0 - d);
      t.compute_asked <- t.compute_asked + d;
      match Hashtbl.find_opt r.current (pid ()) with
      | Some c -> c.computes <- (t0, t1) :: c.computes
      | None -> ()
    end;
    returned ()
  in
  let after f x =
    let y = f x in
    returned ();
    y
  in
  {
    api with
    Api.thread =
      {
        Api.spawn =
          (fun name body ->
            after
              (fun () ->
                th.Api.spawn name (fun () ->
                    Hashtbl.replace r.names (pid ()) name;
                    body ()))
              ());
        join = after th.Api.join;
        compute;
        gettimeofday = after th.Api.gettimeofday;
      };
    net =
      {
        Api.listen = (fun ~port -> after (fun () -> net.Api.listen ~port) ());
        listen_group =
          (fun ~port ~shards ~backlog ~overflow ->
            after
              (fun () -> net.Api.listen_group ~port ~shards ~backlog ~overflow)
              ());
        accept;
        close_listener = after net.Api.close_listener;
        recv;
        send;
        close;
        poll =
          (fun socks ~timeout -> after (fun () -> net.Api.poll socks ~timeout) ());
      };
    fs =
      {
        Api.open_ =
          (fun ~path ~create -> after (fun () -> fs.Api.open_ ~path ~create) ());
        read = (fun fd ~max -> after (fun () -> fs.Api.read fd ~max) ());
        append = (fun fd chunk -> after (fun () -> fs.Api.append fd chunk) ());
        close = after fs.Api.close;
        size = (fun ~path -> after (fun () -> fs.Api.size ~path) ());
      };
  }

(* Replica k's n-th call of a thread minus replica k-1's, in ns, over
   every thread name and call index both replicas reached. *)
let replay_lags t =
  let out = Vec.create () in
  let rs = Array.of_list (List.rev t.replicas) in
  for k = 1 to Array.length rs - 1 do
    Hashtbl.iter
      (fun name (v : Vec.t) ->
        match Hashtbl.find_opt rs.(k - 1).calls name with
        | None -> ()
        | Some (p : Vec.t) ->
            for i = 0 to min v.n p.n - 1 do
              Vec.push out (v.a.(i) - p.a.(i))
            done)
      rs.(k).calls
  done;
  out
