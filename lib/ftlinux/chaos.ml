open Ftsim_sim

type target = Replica_set.target = T_primary | T_backup of int

type injection = {
  inj_at : Time.t;
  inj_target : target;
  inj_kind : Ftsim_hw.Fault.kind;
  inj_disrupts : bool;
}

type perturbation = {
  pert_at : Time.t;
  pert_dur : Time.t;
  pert_loss : float;
  pert_delay : Time.t;
}

type schedule = {
  sched_index : int;
  sched_seed : int;
  horizon : Time.t;
  injections : injection list;
  perturbations : perturbation list;
}

(* {1 Derivation} *)

let kind_of_draw = function
  | 0 -> Ftsim_hw.Fault.Core_failstop
  | 1 -> Ftsim_hw.Fault.Memory_uncorrected
  | _ -> Ftsim_hw.Fault.Bus_error

let derive ~root_seed ~index ~replicas ~horizon =
  if replicas <> 2 && replicas <> 3 then
    invalid_arg "Chaos.derive: replicas must be 2 or 3";
  let seed = Digest.mix (Digest.mix 0xc4a05 root_seed) index in
  let g = Prng.create ~seed in
  let backups = replicas - 1 in
  (* Fault times land anywhere in the first three quarters of the horizon,
     at nanosecond granularity — including mid-deterministic-section and,
     for double faults, mid-failover. *)
  let inj_time () = Time.ns (1 + Prng.int g (3 * horizon / 4)) in
  let inj_target () =
    if Prng.int g (backups + 1) = 0 then T_primary
    else T_backup (Prng.int g backups)
  in
  let n_inj =
    (* 0 faults 20 %, 1 fault 50 %, 2 faults 30 % — with a third replica
       the budget rises to cover sequential double failures. *)
    let d = Prng.int g 10 in
    let base = if d < 2 then 0 else if d < 7 then 1 else 2 in
    if replicas = 3 && base = 2 && Prng.bool g then 3 else base
  in
  let first = ref None in
  let injections =
    List.init n_inj (fun _ ->
        let at =
          match !first with
          | Some t0 when Prng.bool g ->
              (* Back-to-back: the second fault lands within 30 ms of the
                 first, often mid-failover. *)
              t0 + Time.ns (1 + Prng.int g (Time.ms 30))
          | _ -> inj_time ()
        in
        if !first = None then first := Some at;
        {
          inj_at = at;
          inj_target = inj_target ();
          inj_kind = kind_of_draw (Prng.int g 3);
          inj_disrupts = Prng.bool g;
        })
    |> List.sort (fun a b -> compare a.inj_at b.inj_at)
  in
  let n_pert = Prng.int g 3 in
  let perturbations =
    List.init n_pert (fun _ ->
        {
          pert_at = Time.ns (1 + Prng.int g (3 * horizon / 4));
          pert_dur = Time.ns (1 + Prng.int g (Time.ms 200));
          pert_loss = Prng.float g 0.5;
          pert_delay = Time.ns (Prng.int g (Time.ms 2));
        })
    |> List.sort (fun a b -> compare a.pert_at b.pert_at)
  in
  { sched_index = index; sched_seed = seed; horizon; injections; perturbations }

(* Multi-fault sequences for re-protection campaigns: exactly [faults]
   fail-stop-dominant injections spread across the horizon, each landing in
   its own window so the previous kill -> failover -> regenerate cycle has
   room to complete (or to be hit mid-regeneration by the next fault when
   the draw lands early in the window). *)
let derive_multi ~root_seed ~index ~replicas ~horizon ~faults =
  if replicas <> 2 && replicas <> 3 then
    invalid_arg "Chaos.derive_multi: replicas must be 2 or 3";
  if faults < 1 then invalid_arg "Chaos.derive_multi: faults must be >= 1";
  let seed =
    Digest.mix (Digest.mix (Digest.mix 0x9e9e5 root_seed) index) faults
  in
  let g = Prng.create ~seed in
  let backups = replicas - 1 in
  let span = 3 * horizon / 4 in
  let window = max 1 (span / faults) in
  let injections =
    List.init faults (fun k ->
        {
          inj_at = Time.ns ((k * window) + 1 + Prng.int g (3 * window / 4));
          inj_target =
            (* Primary-heavy: the interesting path is the repeated
               promote-and-regenerate cycle. *)
            (if Prng.int g 3 < 2 then T_primary
             else T_backup (Prng.int g backups));
          inj_kind =
            (if Prng.int g 10 < 7 then Ftsim_hw.Fault.Core_failstop
             else kind_of_draw (Prng.int g 3));
          inj_disrupts = Prng.int g 4 = 0;
        })
  in
  let n_pert = Prng.int g 3 in
  let perturbations =
    List.init n_pert (fun _ ->
        {
          pert_at = Time.ns (1 + Prng.int g span);
          pert_dur = Time.ns (1 + Prng.int g (Time.ms 200));
          pert_loss = Prng.float g 0.5;
          pert_delay = Time.ns (Prng.int g (Time.ms 2));
        })
    |> List.sort (fun a b -> compare a.pert_at b.pert_at)
  in
  { sched_index = index; sched_seed = seed; horizon; injections; perturbations }

let pp_target fmt = function
  | T_primary -> Format.pp_print_string fmt "primary"
  | T_backup i -> Format.fprintf fmt "backup-%d" i

let pp_schedule fmt s =
  Format.fprintf fmt "schedule #%d (seed %#x):" s.sched_index s.sched_seed;
  List.iter
    (fun i ->
      Format.fprintf fmt "@ fault %a%s on %a at %s" Ftsim_hw.Fault.pp_kind
        i.inj_kind
        (if i.inj_disrupts then "+coherency" else "")
        pp_target i.inj_target (Time.to_string i.inj_at))
    s.injections;
  List.iter
    (fun p ->
      Format.fprintf fmt "@ perturb at %s for %s loss=%.2f delay=%s"
        (Time.to_string p.pert_at) (Time.to_string p.pert_dur) p.pert_loss
        (Time.to_string p.pert_delay))
    s.perturbations;
  if s.injections = [] && s.perturbations = [] then
    Format.pp_print_string fmt " quiescent"

(* {1 Verdicts} *)

type verdict =
  | V_ok
  | V_divergence of string
  | V_client_violation of string
  | V_outage
  | V_harness_error of string

let verdict_failing = function
  | V_divergence _ | V_client_violation _ | V_harness_error _ -> true
  | V_ok | V_outage -> false

let verdict_label = function
  | V_ok -> "ok"
  | V_divergence _ -> "divergence"
  | V_client_violation _ -> "client-violation"
  | V_outage -> "outage"
  | V_harness_error _ -> "harness-error"

type outcome = {
  verdict : verdict;
  o_failovers : int;
  o_completed : int;
  o_sections : int;
  o_end : Time.t;
  o_lag : string option;
}

(* {1 Shrinking} *)

(* Greedy delta debugging: propose one-step-smaller candidates, keep the
   first that still fails, repeat to a fixpoint.  The measure (component
   count, then summed injection time) strictly decreases on every accepted
   step, so termination needs no budget — the budget only caps the runs
   spent probing candidates that pass. *)

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

let candidates s =
  let drops_inj =
    List.mapi (fun n _ -> { s with injections = drop_nth s.injections n })
      s.injections
  in
  let drops_pert =
    List.mapi
      (fun n _ -> { s with perturbations = drop_nth s.perturbations n })
      s.perturbations
  in
  let halves =
    List.concat
      (List.mapi
         (fun n i ->
           if i.inj_at > Time.ms 1 then
             [
               {
                 s with
                 injections =
                   List.mapi
                     (fun m j ->
                       if m = n then { j with inj_at = j.inj_at / 2 } else j)
                     s.injections;
               };
             ]
           else [])
         s.injections)
  in
  drops_inj @ drops_pert @ halves

let shrink ~run ~budget sched =
  let runs = ref 0 in
  let best_outcome = ref None in
  let fails s =
    if !runs >= budget then false
    else begin
      incr runs;
      let o = run s in
      let f = verdict_failing o.verdict in
      if f then best_outcome := Some o;
      f
    end
  in
  let rec fix s =
    match List.find_opt fails (candidates s) with
    | Some smaller when !runs <= budget -> fix smaller
    | _ -> s
  in
  let minimal = fix sched in
  let outcome = match !best_outcome with Some o -> o | None -> run sched in
  (minimal, outcome, !runs)

(* {1 Campaigns} *)

type run_result = { rr_schedule : schedule; rr_outcome : outcome }

type report = {
  rep_root_seed : int;
  rep_replicas : int;
  rep_workload : string;
  rep_horizon : Time.t;
  rep_results : run_result list;
  rep_minimal : (schedule * outcome * int) option;
}

let failures r =
  List.filter (fun rr -> verdict_failing rr.rr_outcome.verdict) r.rep_results

(* {2 The domain pool}

   Each schedule is an independent deterministic simulation (its engine,
   PRNG, metrics registry and evlog are all built inside [run]), so a
   campaign fans schedule indices out across OCaml 5 domains.  Workers pull
   the next index from an atomic counter — assignment order is a race, but
   it cannot matter: run [i] is a pure function of [(root_seed, i)] — and
   post finished results to a queue only the coordinator drains.  The
   coordinator reassembles [rep_results] in campaign order, so the merged
   report is byte-identical to a sequential run; [progress] and any
   {!Sink}-routed stderr lines fire in completion order, from the
   coordinator's domain only, so console output never tears.

   Shrinking stays single-domain in the coordinator: the minimal repro of
   the lowest failing index must not depend on how many workers found it. *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* A worker posts every line its runs emit (Statsdump, Trace stderr) and
   then the finished result; the coordinator prints lines as they arrive.
   Queue FIFO order guarantees a run's lines are drained before its result,
   so by the time the last result is in, no line is left behind. *)
type camp_msg = M_line of string | M_done of run_result

type mqueue = {
  mq_mutex : Mutex.t;
  mq_cond : Condition.t;
  mq_q : camp_msg Queue.t;
}

let mq_create () =
  { mq_mutex = Mutex.create (); mq_cond = Condition.create (); mq_q = Queue.create () }

let mq_push mq msg =
  Mutex.lock mq.mq_mutex;
  Queue.push msg mq.mq_q;
  Condition.signal mq.mq_cond;
  Mutex.unlock mq.mq_mutex

let mq_pop mq =
  Mutex.lock mq.mq_mutex;
  while Queue.is_empty mq.mq_q do
    Condition.wait mq.mq_cond mq.mq_mutex
  done;
  let msg = Queue.pop mq.mq_q in
  Mutex.unlock mq.mq_mutex;
  msg

(* A raising [run] must not abort the pool (or, sequentially, the
   campaign): the exception becomes a failing harness-error verdict naming
   the schedule's seed, and every other worker keeps draining indices. *)
let harness_error msg =
  {
    verdict = V_harness_error msg;
    o_failovers = 0;
    o_completed = 0;
    o_sections = 0;
    o_end = 0;
    o_lag = None;
  }

let guarded run s =
  try run s
  with e ->
    harness_error
      (Printf.sprintf "schedule #%d (seed %#x): uncaught exception: %s"
         s.sched_index s.sched_seed (Printexc.to_string e))

let run_campaign ~root_seed ~count ~replicas ~horizon ~workload ~run
    ?faults ?(shrink_budget = 64) ?(progress = fun _ -> ()) ?jobs () =
  if replicas <> 2 && replicas <> 3 then
    invalid_arg "Chaos.run_campaign: replicas must be 2 or 3";
  let jobs =
    match jobs with
    | Some j when j < 1 -> invalid_arg "Chaos.run_campaign: jobs must be >= 1"
    | Some j -> min j (max 1 count)
    | None -> min (default_jobs ()) (max 1 count)
  in
  let derive_one index =
    match faults with
    | None -> derive ~root_seed ~index ~replicas ~horizon
    | Some faults -> derive_multi ~root_seed ~index ~replicas ~horizon ~faults
  in
  (* Derivation is pure and pre-validated, but a pool that can lose a
     result deadlocks the coordinator — so even an unexpected derivation
     failure must yield exactly one result for its index. *)
  let run_one index =
    match derive_one index with
    | s -> { rr_schedule = s; rr_outcome = guarded run s }
    | exception e ->
        {
          rr_schedule =
            {
              sched_index = index;
              sched_seed = 0;
              horizon;
              injections = [];
              perturbations = [];
            };
          rr_outcome =
            harness_error
              (Printf.sprintf "schedule #%d: derivation raised: %s" index
                 (Printexc.to_string e));
        }
  in
  let results =
    if jobs <= 1 then
      List.init count (fun index ->
          let rr = run_one index in
          progress rr;
          rr)
    else begin
      let slots = Array.make count None in
      let next = Atomic.make 0 in
      let box = mq_create () in
      let worker () =
        Sink.set (fun line -> mq_push box (M_line line));
        let rec loop () =
          let index = Atomic.fetch_and_add next 1 in
          if index < count then begin
            mq_push box (M_done (run_one index));
            loop ()
          end
        in
        loop ()
      in
      let domains = List.init jobs (fun _ -> Domain.spawn worker) in
      let remaining = ref count in
      while !remaining > 0 do
        match mq_pop box with
        | M_line line -> Sink.line line
        | M_done rr ->
            slots.(rr.rr_schedule.sched_index) <- Some rr;
            progress rr;
            decr remaining
      done;
      List.iter Domain.join domains;
      Array.to_list slots
      |> List.map (function Some rr -> rr | None -> assert false)
    end
  in
  let minimal =
    match
      List.find_opt (fun rr -> verdict_failing rr.rr_outcome.verdict) results
    with
    | None -> None
    | Some rr ->
        Some (shrink ~run:(guarded run) ~budget:shrink_budget rr.rr_schedule)
  in
  {
    rep_root_seed = root_seed;
    rep_replicas = replicas;
    rep_workload = workload;
    rep_horizon = horizon;
    rep_results = results;
    rep_minimal = minimal;
  }

(* {1 JSON} *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let target_to_string = function
  | T_primary -> "primary"
  | T_backup i -> Printf.sprintf "backup-%d" i

let kind_to_string k = Format.asprintf "%a" Ftsim_hw.Fault.pp_kind k

let verdict_detail = function
  | V_ok | V_outage -> None
  | V_divergence d | V_client_violation d | V_harness_error d -> Some d

let buf_injection b i =
  Printf.bprintf b
    "{\"at_ns\":%d,\"target\":\"%s\",\"kind\":\"%s\",\"disrupts_coherency\":%b}"
    i.inj_at (target_to_string i.inj_target)
    (kind_to_string i.inj_kind)
    i.inj_disrupts

let buf_perturbation b p =
  Printf.bprintf b
    "{\"at_ns\":%d,\"duration_ns\":%d,\"loss\":%.4f,\"delay_ns\":%d}" p.pert_at
    p.pert_dur p.pert_loss p.pert_delay

let buf_list b f l =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f b x)
    l;
  Buffer.add_char b ']'

let buf_schedule b s =
  Printf.bprintf b "{\"index\":%d,\"seed\":%d,\"injections\":" s.sched_index
    s.sched_seed;
  buf_list b buf_injection s.injections;
  Buffer.add_string b ",\"perturbations\":";
  buf_list b buf_perturbation s.perturbations;
  Buffer.add_char b '}'

let buf_outcome b o =
  Printf.bprintf b "{\"verdict\":\"%s\"," (verdict_label o.verdict);
  (match verdict_detail o.verdict with
  | Some d -> Printf.bprintf b "\"detail\":\"%s\"," (json_escape d)
  | None -> ());
  Printf.bprintf b
    "\"failovers\":%d,\"completed_requests\":%d,\"digest_sections\":%d,\"end_ns\":%d"
    o.o_failovers o.o_completed o.o_sections o.o_end;
  (match o.o_lag with
  | Some v -> Printf.bprintf b ",\"lag_worst\":\"%s\"" (json_escape v)
  | None -> ());
  Buffer.add_char b '}'

let buf_run_result b rr =
  Buffer.add_string b "{\"schedule\":";
  buf_schedule b rr.rr_schedule;
  Buffer.add_string b ",\"outcome\":";
  buf_outcome b rr.rr_outcome;
  Buffer.add_char b '}'

let report_to_json r =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"root_seed\":%d,\"replicas\":%d,\"workload\":\"%s\",\"horizon_ns\":%d,"
    r.rep_root_seed r.rep_replicas
    (json_escape r.rep_workload)
    r.rep_horizon;
  let count_of v =
    List.length
      (List.filter
         (fun rr -> verdict_label rr.rr_outcome.verdict = v)
         r.rep_results)
  in
  Printf.bprintf b
    "\"runs\":%d,\"ok\":%d,\"divergences\":%d,\"client_violations\":%d,\"outages\":%d,\"harness_errors\":%d,"
    (List.length r.rep_results)
    (count_of "ok") (count_of "divergence")
    (count_of "client-violation")
    (count_of "outage")
    (count_of "harness-error");
  Buffer.add_string b "\"results\":";
  buf_list b buf_run_result r.rep_results;
  (match r.rep_minimal with
  | None -> Buffer.add_string b ",\"minimal_repro\":null"
  | Some (s, o, runs) ->
      Buffer.add_string b ",\"minimal_repro\":{\"schedule\":";
      buf_schedule b s;
      Buffer.add_string b ",\"outcome\":";
      buf_outcome b o;
      Printf.bprintf b ",\"shrink_runs\":%d}" runs);
  Buffer.add_char b '}';
  Buffer.contents b
