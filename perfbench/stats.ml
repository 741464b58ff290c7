(* Exact order statistics over raw samples (no histogram bucketing, so a
   figure moves only when a sample does), and the metric record every
   workload reports. *)

type metric = {
  name : string;
  value : float option;  (** [None]: nothing to measure here, printed null *)
  unit_ : string;
  base : string;  (** what the figure was computed over *)
}

let metric ?(base = "") name unit_ value = { name; value; unit_; base }

(* Nearest-rank percentile, [q] in [0, 100]. *)
let percentile q xs =
  let n = Array.length xs in
  if n = 0 then None
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) - 1 in
    Some s.(max 0 (min (n - 1) k))
  end

let median xs =
  let n = Array.length xs in
  if n = 0 then None
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    Some (if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.)
  end

(* The highest of p99.9/p99/p90/p50 with at least ten samples beyond it. *)
let tail xs =
  let n = float_of_int (Array.length xs) in
  match List.find_opt (fun q -> n *. (1. -. (q /. 100.)) >= 10.) [ 99.9; 99.; 90.; 50. ] with
  | None -> None
  | Some q -> Option.map (fun v -> (q, v)) (percentile q xs)

let ratio num den = if den > 0. then Some (num /. den) else None
let ns_to_ms ns = float_of_int ns /. 1e6

let ms_of_ns_vec (v : Tap.Vec.t) =
  Array.init v.Tap.Vec.n (fun i -> ns_to_ms v.Tap.Vec.a.(i))

(* JSON number: [%.17g] keeps every digit; integers print without a dot. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_value = function
  | Some v when Float.is_finite v -> json_number v
  | _ -> "null"

let show = function
  | Some v when Float.is_finite v -> Printf.sprintf "%.6g" v
  | _ -> "null"
