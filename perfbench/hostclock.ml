(* Host time, normalised for the machine's momentary speed.

   Shared machines change speed by tens of per cent within seconds, as
   co-tenants contend for caches and memory bandwidth; on a 2-vCPU Xeon
   VM the same benchmark iteration took 2.8 s and 4.0 s of wall time a few
   seconds apart.  So every stretch of at most [stretch] wall seconds is
   followed by a short fixed calibration loop, and the stretch counts
   [wall × nominal / loop time].  A reading is therefore seconds on a
   machine where the loop takes [nominal] seconds.  The loop allocates
   young, short-lived data and reads a 512 KiB array at scattered offsets,
   the resources the simulator leans on; it never promotes anything, so the
   program's own heap does not change its speed.

   The clock advances only when it is read ([now]) or ticked ([tick]); the
   calibration loops themselves are not counted. *)

let nominal = 0.002
let stretch = 0.05
let table = Array.make 65536 0

let loop () =
  let t0 = Unix.gettimeofday () in
  let young = ref [] and sum = ref 0 in
  for i = 1 to 200_000 do
    young := (i, i) :: !young;
    if i land 63 = 0 then begin
      List.iter (fun (a, _) -> sum := !sum + a) !young;
      young := []
    end;
    sum := !sum + Array.unsafe_get table ((i * 7919) land 65535)
  done;
  ignore (Sys.opaque_identity !sum);
  Unix.gettimeofday () -. t0

let normalised = ref 0.
let mark = ref (Unix.gettimeofday ())

let fold () =
  let wall = Unix.gettimeofday () -. !mark in
  normalised := !normalised +. (wall *. nominal /. loop ());
  mark := Unix.gettimeofday ()

(* Normalised seconds since the process started. *)
let now () =
  fold ();
  !normalised

(* Called between engine slices: closes the stretch once it is long
   enough. *)
let tick () = if Unix.gettimeofday () -. !mark >= stretch then fold ()
