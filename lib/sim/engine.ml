type exit_reason = Normal | Killed | Exn of exn

exception Killed_exn

(* One event queue: one-shot [schedule] closures, process wake-ups and
   cancellable timers all sit in a single heap keyed by [(at, seq)], and
   [run] pops its minimum.  Cancelling a timer only marks its cell: the
   tombstone stays in the heap until it reaches the top (where [run] drops it
   without firing, counting or moving the clock) or until tombstones make up
   more than half the heap, when [cancel] sweeps them all out at once.  Keys
   are unique, so neither changes the order in which live events fire. *)
type t = {
  mutable now : Time.t;
  events : ev Heap.t;
  mutable seq : int;
  mutable dead : int;  (** cancelled timers still in [events] *)
  mutable current : proc option;
  mutable live : int;
  mutable next_pid : int;
  mutable stopping : bool;
  root_prng : Prng.t;
  registry : Metrics.Registry.t;
  evlog : Evlog.t;
  c_events : Metrics.Counter.t;
  c_timers_armed : Metrics.Counter.t;
  c_timers_cancelled : Metrics.Counter.t;
  c_timers_fired : Metrics.Counter.t;
  c_spawned : Metrics.Counter.t;
}

and ev =
  | Once of (unit -> unit)
  | Timer of {
      t_eng : t;
      t_fn : unit -> unit;
      mutable t_st : timer_state;
    }

and timer_state = Armed | Fired | Cancelled

and proc = {
  pid : int;
  name : string;
  eng : t;
  mutable state : state;
  mutable doomed : bool;
  mutable watchers : (exit_reason -> unit) list;
}

(* [Blocked cell]: the continuation lives in [cell] until the waker claims
   it.  [Ready]: the continuation is inside a scheduled event closure. *)
and state =
  | Embryo
  | Ready
  | Running
  | Blocked of wait_cell
  | Exited of exit_reason

and wait_cell = { mutable k : (unit, unit) Effect.Deep.continuation option }

type _ Effect.t +=
  | E_suspend : (proc -> (unit -> unit) -> unit) -> unit Effect.t
  | E_self : proc Effect.t

let create ?(seed = 42) ?evlog_cap () =
  let registry = Metrics.Registry.create () in
  let evlog = Evlog.create ?cap:evlog_cap () in
  Evlog.set_dropped_counter evlog
    (Metrics.Registry.counter registry "evlog.dropped_events");
  let t =
    {
      now = 0;
      events = Heap.create ();
      seq = 0;
      dead = 0;
      current = None;
      live = 0;
      next_pid = 0;
      stopping = false;
      root_prng = Prng.create ~seed;
      registry;
      evlog;
      c_events = Metrics.Registry.counter registry "engine.events_fired";
      c_timers_armed = Metrics.Registry.counter registry "engine.timers_armed";
      c_timers_cancelled =
        Metrics.Registry.counter registry "engine.timers_cancelled";
      c_timers_fired = Metrics.Registry.counter registry "engine.timers_fired";
      c_spawned = Metrics.Registry.counter registry "engine.procs_spawned";
    }
  in
  Evlog.set_clock evlog (fun () -> t.now);
  t

let now t = t.now
let prng t = t.root_prng
let metrics t = t.registry
let evlog t = t.evlog
let pending_events t = Heap.length t.events - t.dead
let live_procs t = t.live
let stop t = t.stopping <- true
let pid p = p.pid
let proc_name p = p.name
let engine_of_proc p = p.eng

let schedule t ~at f =
  if at < t.now then invalid_arg "Engine.schedule: time in the past";
  t.seq <- t.seq + 1;
  Heap.push t.events ~prio:at ~seq:t.seq (Once f)

(* Always a [Timer]. *)
type handle = ev

let timer t ~at f =
  if at < t.now then invalid_arg "Engine.timer: time in the past";
  t.seq <- t.seq + 1;
  Metrics.Counter.incr t.c_timers_armed;
  let h = Timer { t_eng = t; t_fn = f; t_st = Armed } in
  Heap.push t.events ~prio:at ~seq:t.seq h;
  h

let sweep t =
  Heap.filter_inplace t.events (function
    | Timer { t_st = Cancelled; _ } -> false
    | Timer _ | Once _ -> true);
  t.dead <- 0

let cancel h =
  match h with
  | Timer r -> (
      match r.t_st with
      | Armed ->
          r.t_st <- Cancelled;
          let t = r.t_eng in
          Metrics.Counter.incr t.c_timers_cancelled;
          t.dead <- t.dead + 1;
          if 2 * t.dead > Heap.length t.events then sweep t
      | Fired | Cancelled -> ())
  | Once _ -> ()

let timer_armed h =
  match h with Timer { t_st = Armed; _ } -> true | Timer _ | Once _ -> false

let finish p reason =
  (match p.state with Exited _ -> assert false | _ -> ());
  p.state <- Exited reason;
  p.eng.live <- p.eng.live - 1;
  Evlog.emit p.eng.evlog ~comp:"sim.engine" "proc.exit"
    ~args:
      [
        ("pid", Evlog.Int p.pid);
        ("name", Evlog.Str p.name);
        ( "reason",
          Evlog.Str
            (match reason with
            | Normal -> "normal"
            | Killed -> "killed"
            | Exn e -> Printexc.to_string e) );
      ];
  let ws = p.watchers in
  p.watchers <- [];
  List.iter (fun w -> w reason) ws

(* Resume a parked continuation as process [p].  Re-checks [doomed] so that a
   kill that raced with the wake-up unwinds the process instead of running
   it. *)
let fire p k =
  let open Effect.Deep in
  match p.state with
  | Exited _ -> ()
  | _ ->
      p.state <- Running;
      let saved = p.eng.current in
      p.eng.current <- Some p;
      (if p.doomed then discontinue k Killed_exn else continue k ());
      p.eng.current <- saved

let handler p =
  let open Effect.Deep in
  {
    retc = (fun () -> finish p Normal);
    exnc =
      (fun e ->
        match e with Killed_exn -> finish p Killed | e -> finish p (Exn e));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | E_self -> Some (fun (k : (a, unit) continuation) -> continue k p)
        | E_suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                if p.doomed then discontinue k Killed_exn
                else begin
                  if Evlog.detail p.eng.evlog then
                    Evlog.emit p.eng.evlog ~comp:"sim.engine" "proc.park"
                      ~args:[ ("pid", Evlog.Int p.pid) ];
                  let cell = { k = Some k } in
                  p.state <- Blocked cell;
                  let waker () =
                    match (p.state, cell.k) with
                    | Blocked cell', Some k when cell' == cell ->
                        cell.k <- None;
                        p.state <- Ready;
                        schedule p.eng ~at:p.eng.now (fun () -> fire p k)
                    | _ -> ()
                  in
                  register p waker
                end)
        | _ -> None);
  }

let spawn t ?(name = "proc") ?at f =
  let at = match at with None -> t.now | Some a -> a in
  t.next_pid <- t.next_pid + 1;
  let p =
    {
      pid = t.next_pid;
      name;
      eng = t;
      state = Embryo;
      doomed = false;
      watchers = [];
    }
  in
  t.live <- t.live + 1;
  Metrics.Counter.incr t.c_spawned;
  Evlog.emit t.evlog ~comp:"sim.engine" "proc.spawn"
    ~args:[ ("pid", Evlog.Int p.pid); ("name", Evlog.Str p.name) ];
  schedule t ~at (fun () ->
      match p.state with
      | Embryo when p.doomed -> finish p Killed
      | Embryo ->
          p.state <- Running;
          let saved = t.current in
          t.current <- Some p;
          Effect.Deep.match_with f () (handler p);
          t.current <- saved
      | Exited _ -> ()
      | Ready | Running | Blocked _ -> assert false);
  p

let run ?until t =
  t.stopping <- false;
  let until = match until with Some u -> u | None -> max_int in
  let rec loop () =
    (* Tombstones alone do not keep the loop going or move the clock. *)
    if (not t.stopping) && pending_events t > 0 then begin
      let at = Heap.min_prio t.events in
      if at > until then t.now <- max t.now until
      else begin
        (match Heap.take t.events with
        | Timer { t_st = Cancelled; _ } -> t.dead <- t.dead - 1
        | Timer r ->
            r.t_st <- Fired;
            t.now <- max t.now at;
            Metrics.Counter.incr t.c_events;
            Metrics.Counter.incr t.c_timers_fired;
            if Evlog.detail t.evlog then
              Evlog.emit t.evlog ~comp:"sim.engine" "timer.fire";
            r.t_fn ()
        | Once f ->
            t.now <- max t.now at;
            Metrics.Counter.incr t.c_events;
            f ());
        loop ()
      end
    end
  in
  loop ()

let self () = Effect.perform E_self

let suspend register = Effect.perform (E_suspend register)

(* Park on a cancellable timer.  If the wake-up never happens because the
   process dies first ([kill], partition halt), the [Killed_exn] unwinding
   through this frame cancels the timer, so no dead event lingers in the
   queue until its deadline. *)
let sleep_until at =
  let h = ref None in
  try
    suspend (fun p waker ->
        h := Some (timer p.eng ~at:(max at p.eng.now) waker))
  with e ->
    (match !h with Some h -> cancel h | None -> ());
    raise e

let sleep d =
  if d < 0 then invalid_arg "Engine.sleep: negative duration";
  if d = 0 then ()
  else
    let h = ref None in
    try
      suspend (fun p waker -> h := Some (timer p.eng ~at:(p.eng.now + d) waker))
    with e ->
      (match !h with Some h -> cancel h | None -> ());
      raise e

type timeout_outcome = [ `Done | `Timeout ]

let with_timeout ~at register =
  let outcome = ref `Done in
  let th = ref None in
  let withdraw = ref (fun () -> ()) in
  (try
     suspend (fun p waker ->
         let decided = ref false in
         let decide o () =
           if not !decided then begin
             decided := true;
             outcome := o;
             waker ()
           end
         in
         (* The deadline runs in raw event context: withdraw the registration
            synchronously so a wake arriving later at the same instant is not
            consumed by a waiter that has already timed out.  The [decided]
            gate also covers a wake and a deadline at the same instant with
            the wake first: the timer still fires (its cancellation below
            only happens once the process resumes) but must do nothing. *)
         th :=
           Some
             (timer p.eng ~at:(max at p.eng.now) (fun () ->
                  if not !decided then begin
                    !withdraw ();
                    decide `Timeout ()
                  end));
         withdraw := register p (decide `Done))
   with e ->
     (match !th with Some h -> cancel h | None -> ());
     raise e);
  (match !th with
  | Some h -> if !outcome = `Done then cancel h
  | None -> ());
  !outcome

let yield () = suspend (fun p waker -> schedule p.eng ~at:p.eng.now (fun () -> waker ()))

let kill p =
  match p.state with
  | Exited _ -> ()
  | _ ->
      Evlog.emit p.eng.evlog ~comp:"sim.engine" "proc.kill"
        ~args:[ ("pid", Evlog.Int p.pid); ("name", Evlog.Str p.name) ];
      p.doomed <- true;
      (match p.state with
      | Blocked cell -> (
          match cell.k with
          | Some k ->
              cell.k <- None;
              p.state <- Ready;
              schedule p.eng ~at:p.eng.now (fun () -> fire p k)
          | None -> ())
      | Embryo | Ready | Running | Exited _ -> ())

let status p = match p.state with Exited r -> Some r | _ -> None

let on_exit p f =
  match p.state with
  | Exited r -> f r
  | _ -> p.watchers <- f :: p.watchers

let join p =
  match p.state with
  | Exited r -> r
  | _ ->
      let result = ref Normal in
      suspend (fun _self waker ->
          on_exit p (fun r ->
              result := r;
              waker ()));
      !result
