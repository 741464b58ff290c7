(* The benchmark's own clients, built only on the public Host/Tcp/Http
   surface: an open-loop web client (one connection per GET) and a
   single-stream downloader.  Both verify every byte they accept through
   [Payload.stream_hash], and both keep what the end-to-end and per-layer
   metrics need: due, connect and completion times per request, and, when
   traced, the arrival time of every received chunk keyed by the client's
   port (the server side of the 4-tuple match). *)

open Ftsim_sim
open Ftsim_netstack

let server_ip = "10.0.0.1"
let client_ip = "10.0.0.9"
let http_port = 80
let unset = -1

type outcome = Ok_resp | Shed | Failed

type req = {
  id : int;
  due : Time.t;
  mutable started : Time.t;  (** the request's process first ran *)
  mutable connected : Time.t;  (** connect returned; [unset] if never *)
  mutable port : int;  (** client port of the connection *)
  mutable header_at : Time.t;  (** response header fully read *)
  mutable first_byte : Time.t;  (** first response byte *)
  mutable finished : Time.t;  (** [unset] until the request resolved *)
  mutable outcome : outcome;
  mutable rx : (int * Time.t) list;
      (** (stream offset after the chunk, arrival time), newest first; kept
          for the download always, for web requests only when traced *)
}

(* Poisson arrivals conditioned on their count: [rate * window] due times
   drawn uniformly over the window and sorted.  Conditioning removes the
   count's own sampling noise from the throughput figures while keeping
   the arrival pattern a pure function of the seed. *)
let due_times ~seed ~rate ~start ~window =
  let n = int_of_float (Float.round (rate *. Time.to_sec_f window)) in
  let rng = Random.State.make [| seed; int_of_float rate |] in
  let a = Array.init n (fun _ -> start + Random.State.full_int rng window) in
  Array.sort compare a;
  a

(* Reads through a recv function that stamps every chunk.  [on_chunk] sees
   the stream offset after the chunk. *)
let stamped_reader eng c ~on_chunk =
  let got = ref 0 in
  Http.reader_fn (fun max ->
      match Tcp.recv c ~max with
      | exception Tcp.Connection_closed -> []
      | cs ->
          let n = Payload.total_len cs in
          if n > 0 then begin
            got := !got + n;
            on_chunk !got (Engine.now eng)
          end;
          cs)

let fetch host eng ~page_bytes ~page_hash ~timeout ~trace ~bad r =
  r.started <- Engine.now eng;
  match Tcp.connect (Host.stack host) ~host:server_ip ~port:http_port with
  | exception Tcp.Connection_closed -> r.finished <- Engine.now eng
  | c ->
      r.connected <- Engine.now eng;
      r.port <- (Tcp.local_addr c).Packet.port;
      (* Fail-stop can leave a fully ACKed request with nobody to answer
         it; the watchdog turns that into a failed request at the
         per-request timeout instead of a reader blocked forever. *)
      let watchdog =
        Engine.timer eng
          ~at:(max (Engine.now eng) (r.due + timeout))
          (fun () -> Tcp.abort c)
      in
      let reader =
        stamped_reader eng c ~on_chunk:(fun off at ->
            if r.first_byte = unset then r.first_byte <- at;
            if trace then r.rx <- (off, at) :: r.rx)
      in
      (try
         Tcp.send c (Payload.of_string (Http.request ~meth:"GET" ~target:"/" ()));
         match Http.read_headers reader with
         | None -> ()
         | Some hdr -> (
             r.header_at <- Engine.now eng;
             match (Http.status_code hdr, Http.content_length hdr) with
             | Some 503, _ -> r.outcome <- Shed
             | Some 200, Some len ->
                 let body = Http.read_body reader len in
                 if Payload.total_len body = len then
                   if len = page_bytes && Payload.stream_hash 0 body = page_hash
                   then r.outcome <- Ok_resp
                   else
                     bad
                       (Printf.sprintf
                          "request %d: a 200 body of %d bytes is not the page" r.id
                          len)
             | _ -> ())
       with Tcp.Connection_closed -> ());
      Engine.cancel watchdog;
      (try Tcp.close c with Tcp.Connection_closed -> ());
      r.finished <- Engine.now eng

let new_req id due =
  {
    id;
    due;
    started = unset;
    connected = unset;
    port = unset;
    header_at = unset;
    first_byte = unset;
    finished = unset;
    outcome = Failed;
    rx = [];
  }

(* One process per request, started at its due time. *)
let start_web host eng ~dues ~page_bytes ~timeout ~trace ~bad =
  let page_hash = Payload.stream_hash 0 [ Payload.zeroes page_bytes ] in
  Array.mapi
    (fun id due ->
      let r = new_req id due in
      ignore
        (Engine.spawn eng ~name:"client-req" ~at:due (fun () ->
             fetch host eng ~page_bytes ~page_hash ~timeout ~trace ~bad r));
      r)
    dues

(* A request is OK only when its verified body arrived within the timeout. *)
let ok ~timeout r =
  r.outcome = Ok_resp && r.finished <> unset && r.finished - r.due <= timeout

type download = {
  d_req : req;  (** the download as one request: due = when it started *)
  mutable d_bytes : int;  (** body bytes received *)
  mutable d_hash : int;
  mutable d_length : int;  (** Content-Length announced *)
}

(* wget: one connection, one GET, the whole body hashed as it streams.
   Every chunk's arrival is kept: the outage is read off its gaps. *)
let start_download host eng ~at =
  let r = new_req 0 at in
  let d = { d_req = r; d_bytes = 0; d_hash = 0; d_length = unset } in
  ignore
    (Engine.spawn eng ~name:"client-wget" ~at (fun () ->
         r.started <- Engine.now eng;
         let c = Tcp.connect (Host.stack host) ~host:server_ip ~port:http_port in
         r.connected <- Engine.now eng;
         r.port <- (Tcp.local_addr c).Packet.port;
         let reader =
           stamped_reader eng c ~on_chunk:(fun off at ->
               if r.first_byte = unset then r.first_byte <- at;
               r.rx <- (off, at) :: r.rx)
         in
         Tcp.send c (Payload.of_string (Http.request ~meth:"GET" ~target:"/file" ()));
         (match Http.read_headers reader with
         | None -> ()
         | Some hdr -> (
             r.header_at <- Engine.now eng;
             match Http.content_length hdr with
             | None -> ()
             | Some len ->
                 d.d_length <- len;
                 let rec drain () =
                   if d.d_bytes < len then
                     match Http.read_body reader (min (256 * 1024) (len - d.d_bytes)) with
                     | [] -> ()
                     | cs ->
                         d.d_hash <- Payload.stream_hash d.d_hash cs;
                         d.d_bytes <- d.d_bytes + Payload.total_len cs;
                         drain ()
                 in
                 drain ();
                 if d.d_bytes = len then r.outcome <- Ok_resp));
         (try Tcp.close c with Tcp.Connection_closed -> ());
         r.finished <- Engine.now eng));
  d
