type 'a entry = { prio : int; seq : int; value : 'a }

type 'a t = { mutable arr : 'a entry array; mutable len : int }

let create () = { arr = [||]; len = 0 }

let length h = h.len

let is_empty h = h.len = 0

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow h e =
  let cap = Array.length h.arr in
  let narr = Array.make (if cap = 0 then 16 else cap * 2) e in
  Array.blit h.arr 0 narr 0 h.len;
  h.arr <- narr

(* The sifts move a hole instead of swapping: one array write per level. *)

(* Place [e] at the hole [i] or above it. *)
let rec sift_up h i e =
  if i = 0 then h.arr.(0) <- e
  else
    let parent = (i - 1) / 2 in
    let pe = h.arr.(parent) in
    if less e pe then begin
      h.arr.(i) <- pe;
      sift_up h parent e
    end
    else h.arr.(i) <- e

(* Place [e] at the hole [i] or below it, within [0, len). *)
let rec sift_down h i e =
  let l = (2 * i) + 1 in
  if l >= h.len then h.arr.(i) <- e
  else
    let r = l + 1 in
    let c = if r < h.len && less h.arr.(r) h.arr.(l) then r else l in
    let ce = h.arr.(c) in
    if less ce e then begin
      h.arr.(i) <- ce;
      sift_down h c e
    end
    else h.arr.(i) <- e

let push h ~prio ~seq value =
  let e = { prio; seq; value } in
  if h.len = Array.length h.arr then grow h e;
  h.len <- h.len + 1;
  sift_up h (h.len - 1) e

let min_prio h = if h.len = 0 then max_int else h.arr.(0).prio

let take h =
  if h.len = 0 then invalid_arg "Heap.take: empty heap";
  let top = h.arr.(0) in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then sift_down h 0 h.arr.(last);
  top.value

let pop h =
  if h.len = 0 then None
  else
    let top = h.arr.(0) in
    ignore (take h);
    Some (top.prio, top.seq, top.value)

let filter_inplace h keep =
  let old_len = h.len in
  let j = ref 0 in
  for i = 0 to old_len - 1 do
    let e = h.arr.(i) in
    if keep e.value then begin
      h.arr.(!j) <- e;
      incr j
    end
  done;
  h.len <- !j;
  (* Drop the references the vacated slots still hold. *)
  if h.len = 0 then h.arr <- [||]
  else Array.fill h.arr h.len (old_len - h.len) h.arr.(0);
  for i = (h.len / 2) - 1 downto 0 do
    sift_down h i h.arr.(i)
  done
