type 'a entry = { prio : int; seq : int; value : 'a }

type 'a t = { mutable arr : 'a entry array; mutable len : int }

let create () = { arr = [||]; len = 0 }

let length h = h.len

let is_empty h = h.len = 0

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow h e =
  let cap = Array.length h.arr in
  if h.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let narr = Array.make ncap e in
    Array.blit h.arr 0 narr 0 h.len;
    h.arr <- narr
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h.arr.(i) h.arr.(parent) then begin
      let tmp = h.arr.(i) in
      h.arr.(i) <- h.arr.(parent);
      h.arr.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && less h.arr.(l) h.arr.(!smallest) then smallest := l;
  if r < h.len && less h.arr.(r) h.arr.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(!smallest);
    h.arr.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h ~prio ~seq value =
  let e = { prio; seq; value } in
  grow h e;
  h.arr.(h.len) <- e;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let pop h =
  if h.len = 0 then None
  else begin
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.arr.(0) <- h.arr.(h.len);
      sift_down h 0
    end;
    Some (top.prio, top.seq, top.value)
  end

let min_prio h = if h.len = 0 then max_int else h.arr.(0).prio

let peek h =
  if h.len = 0 then None
  else
    let top = h.arr.(0) in
    Some (top.prio, top.seq, top.value)

let clear h =
  h.arr <- [||];
  h.len <- 0
