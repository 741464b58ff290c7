(** Array-backed binary min-heap, specialised to integer priorities.

    Used by the simulation engine as its single event queue, and as an
    ordered waiter set (output-commit waiters keyed by LSN).  Ties are not
    broken by the heap itself; callers that need FIFO behaviour among equal
    priorities must encode a sequence number into the priority comparison,
    which {!Engine} does. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> prio:int -> seq:int -> 'a -> unit
(** [push h ~prio ~seq v] inserts [v].  Ordering is lexicographic on
    [(prio, seq)], so equal priorities pop in [seq] order. *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the minimum [(prio, seq, value)] triple. *)

val min_prio : 'a t -> int
(** Priority of the minimum entry, [max_int] when empty.  Allocation-free,
    for callers that test the top before popping. *)

val take : 'a t -> 'a
(** Remove the minimum entry and return its value, without allocating the
    triple {!pop} returns.
    @raise Invalid_argument on an empty heap. *)

val filter_inplace : 'a t -> ('a -> bool) -> unit
(** Keep only the entries whose value satisfies the predicate, then
    re-heapify bottom-up in O(length).  When every [(prio, seq)] key is
    distinct the pop order of the survivors is unchanged. *)
