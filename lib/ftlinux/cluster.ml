open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel
open Ftsim_netstack

type lifecycle = Replica_set.lifecycle =
  | Protected
  | Degraded
  | Regenerating
  | Outage

type config = {
  topology : Topology.spec;
  replicas : int;  (* 2 (primary + backup) or 3 (primary + two backups) *)
  split : [ `Symmetric | `Asymmetric of int ];
  kernel_config : Kernel.config;
  mailbox_config : Mailbox.config;
  hb_period : Time.t;
  hb_timeout : Time.t;
  output_commit : bool;
      (* §3.5: gates both client-input ACKs and outbound data on stability *)
  det_shard : bool;
  replay_workers : int;
      (* secondary replay-executor pool; 1 = the original serial drain *)
  driver_load_time : Time.t;
  batch : Msglayer.batch_config;
  lagmon : Lagmon.config option;
      (* replication-health monitor; None (the default) runs without one *)
  server_ip : string;
  app_env : (string * string) list;
  reprotect : bool;
      (* live re-protection: journal the record stream and regenerate a
         fresh backup online after a replica death *)
  regen_delay : Time.t;  (* Degraded dwell before regeneration starts *)
  regen_layout : Memlayout.t option;
      (* memory classification driving the snapshot-copy budget; None
         models a freshly booted layout (kernel reservations only) *)
}

(* Model constants no caller varies (the servers' TCP stacks use
   [Tcp.default_config] likewise): the secondary-side cost of absorbing one
   TCP delta (the [wake_up_process] latency applies only to thread-waking
   records), and the modelled snapshot-copy bandwidth of a regeneration. *)
let delta_replay_cost = Time.us 10
let regen_bw = 2_000_000_000

let default_config =
  {
    topology = Topology.opteron_testbed;
    replicas = 2;
    split = `Symmetric;
    kernel_config = Kernel.default_config;
    mailbox_config = Mailbox.default_config;
    hb_period = Time.ms 10;
    hb_timeout = Time.ms 60;
    output_commit = true;
    det_shard = true;
    replay_workers = 1;
    driver_load_time = Time.ms 4950;
    batch = Msglayer.default_batch;
    lagmon = None;
    server_ip = "10.0.0.1";
    app_env = [];
    reprotect = false;
    regen_delay = Time.ms 100;
    regen_layout = None;
  }

(* The journal: the survivor-readable copy of the replication stream.  A
   regenerated backup replays it from LSN 0, so the global LSN space and
   the journal's index space must coincide — [create_primary ?journal] is
   invoked at LSN assignment and [create_secondary ?journal] in receive
   order, and every epoch switch chains [base_lsn] to the journal length,
   keeping the invariant across epochs. *)
type journal = {
  mutable j_buf : Wire.record option array;
  mutable j_len : int;
}

let journal_create () = { j_buf = Array.make 256 None; j_len = 0 }

let journal_append j r =
  if j.j_len = Array.length j.j_buf then begin
    let nb = Array.make (2 * Array.length j.j_buf) None in
    Array.blit j.j_buf 0 nb 0 j.j_len;
    j.j_buf <- nb
  end;
  j.j_buf.(j.j_len) <- Some r;
  j.j_len <- j.j_len + 1

let journal_get j i =
  match j.j_buf.(i) with Some r -> r | None -> invalid_arg "journal_get"

let journal_clone_prefix j n =
  let buf = Array.make (max 256 n) None in
  Array.blit j.j_buf 0 buf 0 n;
  { j_buf = buf; j_len = n }

(* What the recording side writes to when re-protection is on.  While a
   backup is attached, appends go through its message layer (which also
   journals them); while the set is degraded there is no backup — appends
   journal directly and stability is granted immediately (outputs release
   unprotected, which is exactly what Degraded means). *)
type live_sink = {
  mutable ls_ml : Msglayer.primary option;
  mutable ls_journal : journal;
}

let sink_of_live_sink ls =
  {
    Msglayer.sink_append =
      (fun r ->
        match ls.ls_ml with
        | Some ml -> Msglayer.append ml r
        | None ->
            let lsn = ls.ls_journal.j_len in
            journal_append ls.ls_journal r;
            lsn);
    sink_last_lsn =
      (fun () ->
        match ls.ls_ml with
        | Some ml -> Msglayer.last_lsn ml
        | None -> ls.ls_journal.j_len - 1);
    sink_wait_stable =
      (fun ~lsn ->
        match ls.ls_ml with
        | Some ml -> Msglayer.wait_stable ml ~lsn
        | None -> ());
    sink_flush =
      (fun () -> match ls.ls_ml with Some ml -> Msglayer.flush ml | None -> ());
  }

type transition = {
  tr_at : Time.t;
  tr_from : lifecycle;
  tr_to : lifecycle;
  tr_epoch : int;  (* epoch in force once the transition lands *)
}

(* One takeover, filled in as it progresses.  An epoch holds at most one:
   after it the set is Degraded, and the next takeover needs the epoch
   switch that re-protects it. *)
type takeover = {
  halted : Time.t option;  (* the primary's unexpected halt *)
  started : Time.t option;  (* a backup declared the primary failed *)
  completed : Time.t option;  (* the winner went live *)
  winner : int option;  (* the backup slot that took over *)
  epoch : int;
}

(* One backup replica.  A failover swaps the survivor's partition, kernel,
   namespace and joining epoch with the primary's, so the slot then holds
   the dead primary; the message-layer pair stays in the slot (frozen
   metrics) until an epoch switch replaces it. *)
type backup = {
  idx : int;
  mutable part : Partition.t;
  mutable kernel : Kernel.t;
  mutable ml_p : Msglayer.primary;  (* the primary's end of this log *)
  mutable ml_s : Msglayer.secondary;
  mutable ns : Namespace.t;
  mutable joined : int;  (* epoch at which this replica joined *)
  mutable hb_p : Heartbeat.t option;  (* the primary watching this backup *)
  mutable hb_s : Heartbeat.t option;
      (* this backup watching the primary (after an arbitration: its peer) *)
  mutable mon : Lagmon.t option;
  mutable pair : (Digest.t * Digest.t) option;
      (* the open (primary, this backup) digest pair *)
  mutable journal : journal;
      (* receive-order journal (re-protection only): the regeneration
         source when the *primary* dies and this backup is the survivor *)
  mutable left : bool;
      (* an arbitration loser that stood down once the winner went live *)
}

(* Backup-to-backup mailbox traffic with two backups: the takeover
   arbitration's received-LSN announcements, then the loser's and the
   winner's heartbeats while the winner is not yet live. *)
type arb_msg = Lsn of int | Beat

type t = {
  eng : Engine.t;
  cfg : config;
  machine : Machine.t;
  app : Api.app;
  nic : Nic.t option;
  sink : live_sink option;  (* Some iff [cfg.reprotect] *)
  group : Msglayer.group option;  (* Some iff two backups *)
  arb : arb_msg Mailbox.duplex option;  (* backup 0 <-> backup 1 *)
  mutable part_p : Partition.t;
  mutable kernel_p : Kernel.t;
  mutable ns_p : Namespace.t;
  mutable epoch_joined_p : int;
  backups : backup array;
  mutable lifecycle : lifecycle;
  mutable epoch : int;
  mutable takeovers : takeover list;  (* newest first *)
  mutable transitions : transition list;  (* newest first *)
  mutable subs : (transition -> unit) list;
  mutable regen_gen : int;
      (* bumped to invalidate an in-flight regeneration (abort/outage) *)
  mutable switch_cutoff : int option;
      (* journal length at the last epoch switch = the spliced backup's
         base LSN *)
  mutable digest_pairs : (Digest.t * Digest.t * Digest.cap option) list;
      (* closed (primary, secondary, secondary-side cap) digest pairs of
         past epochs, oldest last *)
  mutable all_ns : Namespace.t list;
  mutable lagmons : (string * Lagmon.t) list;  (* newest first *)
  mutable acc_msgs : int;
  mutable acc_bytes : int;
  mutable acc_records : int;
  (* The open pinned failover phase span: "failover.detect" from the
     primary's halt, then drain_replay, driver_reload and golive. *)
  mutable phase : Evlog.span option;
}

let log = Trace.make "ft.cluster"

let machine t = t.machine
let primary_partition t = t.part_p
let secondary_partition t = t.backups.(0).part
let backup_partition t i = t.backups.(i).part
let primary_kernel t = t.kernel_p
let secondary_kernel t = t.backups.(0).kernel
let primary_namespace t = t.ns_p
let secondary_namespace t = t.backups.(0).ns
let backup_received_lsn t i = Msglayer.received_lsn t.backups.(i).ml_s
let lagmon t = t.backups.(0).mon
let lagmons t = List.rev t.lagmons
let takeovers t = t.takeovers
let latest t = List.nth_opt t.takeovers 0
let failover_started_at t = Option.bind (latest t) (fun k -> k.started)
let failover_completed_at t = Option.bind (latest t) (fun k -> k.completed)
let state t = t.lifecycle
let epoch t = t.epoch

let failover_count t =
  List.length (List.filter (fun k -> k.started <> None) t.takeovers)

let transitions t = List.rev t.transitions
let on_transition t f = t.subs <- t.subs @ [ f ]
let switch_cutoff t = t.switch_cutoff
let backup_first_lsn t = Msglayer.first_lsn t.backups.(0).ml_s

let members t =
  {
    Replica_set.m_role = Replica_set.Primary;
    m_epoch = t.epoch_joined_p;
    m_partition = t.part_p;
  }
  :: List.filter_map
       (fun b ->
         if b.left then None
         else
           Some
             {
               Replica_set.m_role = Replica_set.Backup;
               m_epoch = b.joined;
               m_partition = b.part;
             })
       (Array.to_list t.backups)

let all_halted t =
  List.for_all
    (fun m -> Partition.is_halted m.Replica_set.m_partition)
    (members t)

let sum_backups t f = Array.fold_left (fun acc b -> acc + f b) 0 t.backups

let traffic_msgs t =
  t.acc_msgs + sum_backups t (fun b -> Msglayer.traffic_msgs b.ml_p b.ml_s)

let traffic_bytes t =
  t.acc_bytes + sum_backups t (fun b -> Msglayer.traffic_bytes b.ml_p b.ml_s)

let det_ops t = Namespace.det_ops t.ns_p

(* Every backup's log carries the same records; a disabled member stops
   counting, so take the longest. *)
let records_sent t =
  t.acc_records
  + Array.fold_left
      (fun acc b -> max acc (Msglayer.p_records b.ml_p))
      0 t.backups

let compare_digests t =
  let open_pairs =
    List.filter_map
      (fun b -> Option.map (fun (dp, ds) -> (dp, ds, None)) b.pair)
      (Array.to_list t.backups)
  in
  List.fold_left
    (fun acc (dp, ds, cap) ->
      match acc with
      | Some _ -> acc
      | None ->
          Digest.compare_replicas_capped ~secondary_cap:cap ~primary:dp
            ~secondary:ds)
    None
    (List.rev_append t.digest_pairs open_pairs)

let replay_divergence t =
  List.fold_left
    (fun acc ns ->
      match acc with Some _ -> acc | None -> Namespace.divergence ns)
    None t.all_ns

let stop_hb = Option.iter Heartbeat.stop

let shutdown t =
  Array.iter
    (fun b ->
      stop_hb b.hb_p;
      stop_hb b.hb_s)
    t.backups;
  List.iter (fun (_, m) -> Lagmon.stop m) t.lagmons

let stop_heartbeats t =
  Array.iter
    (fun b ->
      stop_hb b.hb_p;
      stop_hb b.hb_s;
      b.hb_p <- None;
      b.hb_s <- None)
    t.backups

let set_lifecycle t to_ =
  if t.lifecycle <> to_ then begin
    let tr =
      {
        tr_at = Engine.now t.eng;
        tr_from = t.lifecycle;
        tr_to = to_;
        tr_epoch = t.epoch;
      }
    in
    t.lifecycle <- to_;
    t.transitions <- tr :: t.transitions;
    Evlog.emit (Engine.evlog t.eng) ~comp:"ft.cluster" "lifecycle"
      ~args:
        [
          ("from", Evlog.Str (Replica_set.lifecycle_label tr.tr_from));
          ("to", Evlog.Str (Replica_set.lifecycle_label to_));
          ("epoch", Evlog.Int tr.tr_epoch);
        ];
    List.iter (fun f -> f tr) t.subs
  end

(* The failover phases are pinned (exempt from ring eviction) and
   contiguous: each begins exactly where the previous one ends, so the
   per-phase durations in [ftsim timeline] sum exactly to the halt-to-live
   recovery time. *)
let next_phase t name =
  let ev = Engine.evlog t.eng in
  Option.iter (Evlog.span_end ev) t.phase;
  t.phase <- Some (Evlog.span_begin ev ~pin:true ~comp:"ft.cluster" name)

let end_phase t =
  Option.iter (Evlog.span_end (Engine.evlog t.eng)) t.phase;
  t.phase <- None

(* The current epoch's takeover record, opened by its first note. *)
let note_takeover t f =
  match t.takeovers with
  | k :: rest when k.epoch = t.epoch -> t.takeovers <- f k :: rest
  | ks ->
      let k =
        {
          halted = None;
          started = None;
          completed = None;
          winner = None;
          epoch = t.epoch;
        }
      in
      t.takeovers <- f k :: ks

let takeover_started t =
  match t.takeovers with
  | { epoch; started = Some _; _ } :: _ -> epoch = t.epoch
  | _ -> false

let takeover_completed t =
  match t.takeovers with
  | { epoch; completed = Some _; _ } :: _ -> epoch = t.epoch
  | _ -> false

(* Per-backup replication-health monitor of the first epoch (see the
   determinism contract in {!Lagmon}: sources are pure reads). *)
let start_lagmon t b ~name lm_config =
  let ml_p = b.ml_p and ml_s = b.ml_s and ns_p = t.ns_p in
  let part_p = t.part_p and part_b = b.part in
  let mon =
    Lagmon.start ~config:lm_config t.eng ~name
      {
        Lagmon.appended = (fun () -> Msglayer.last_lsn ml_p);
        acked = (fun () -> Msglayer.acked ml_p);
        replayed = (fun () -> Msglayer.received_lsn ml_s);
        queue_depth = (fun () -> Msglayer.queue_depth ml_s);
        rtt = (fun () -> Msglayer.last_rtt ml_p);
        channels =
          (fun () ->
            List.map
              (fun (c, emitted, _) ->
                (c, emitted, Msglayer.chan_acked ml_p ~chan:c))
              (Namespace.chan_cursors ns_p));
        (* A dead backup freezes its monitor at once: with two backups
           quorum-1 output commit lets the primary run ahead of it until
           the heartbeat declares it, which is a death, not lag. *)
        alive =
          (fun () ->
            (not (takeover_started t))
            && (not (Msglayer.is_disabled ml_p))
            && (not (Partition.is_halted part_p))
            && not (Partition.is_halted part_b));
      }
  in
  t.lagmons <- (name, mon) :: t.lagmons;
  b.mon <- Some mon

(* An unexpected halt of the *current* primary opens the
   "failover.detect" phase; while there is no attached backup it is
   instead a service outage.  [run_failover]'s own IPI-halt arrives with
   the takeover already started (and the lifecycle still [Protected]) and
   is neither. *)
let rec watch_primary t part =
  Partition.on_halt part (fun () ->
      if part == t.part_p then begin
        if (not (takeover_started t)) && t.lifecycle = Protected then begin
          note_takeover t (fun k ->
              { k with halted = Some (Engine.now t.eng) });
          next_phase t "failover.detect"
        end
        else if t.lifecycle = Degraded || t.lifecycle = Regenerating then begin
          (* No fully-replicated survivor: a half-replayed regeneration
             target must never go live (its journal prefix would replay
             outputs already released unprotected), so halt it and declare
             the outage. *)
          Trace.warnf log ~eng:t.eng "primary died while %s: service outage"
            (Replica_set.lifecycle_label t.lifecycle);
          t.regen_gen <- t.regen_gen + 1;
          let b = t.backups.(0) in
          if t.lifecycle = Regenerating && not (Partition.is_halted b.part)
          then Ipi.send_halt t.eng b.part;
          set_lifecycle t Outage
        end
      end)

and start_heartbeats t b ~epoch =
  let p_name, s_name =
    if Array.length t.backups = 1 then
      let suffix = if epoch = 0 then "" else Printf.sprintf ".e%d" epoch in
      ("primary" ^ suffix, "secondary" ^ suffix)
    else
      ( Printf.sprintf "primary-of-backup-%d" b.idx,
        Printf.sprintf "backup-%d" b.idx )
  in
  let ml_p = b.ml_p and ml_s = b.ml_s and kernel_p = t.kernel_p in
  let kernel_s = b.kernel in
  (* Guard against a stale detector of a replaced epoch firing late.  A
     backup's detector also fires once another backup's detection already
     started the failover: it must join the takeover arbitration. *)
  let live () = t.epoch = epoch && t.lifecycle = Protected in
  let joins () =
    t.epoch = epoch && takeover_started t && not (takeover_completed t)
  in
  b.hb_p <-
    Some
      (Heartbeat.start ~name:p_name
         ~spawn:(fun name f -> Kernel.spawn_thread kernel_p ~name f)
         ~eng:t.eng ~period:t.cfg.hb_period ~timeout:t.cfg.hb_timeout
         ~send:(fun ~seq -> Msglayer.send_heartbeat_p ml_p ~seq)
         ~last_peer:(fun () -> Msglayer.last_peer_activity_p ml_p)
         ~on_failure:(fun () -> if live () then on_backup_death t b)
         ());
  b.hb_s <-
    Some
      (Heartbeat.start ~name:s_name
         ~spawn:(fun name f -> Kernel.spawn_thread kernel_s ~name f)
         ~eng:t.eng ~period:t.cfg.hb_period ~timeout:t.cfg.hb_timeout
         ~send:(fun ~seq -> Msglayer.send_heartbeat_s ml_s ~seq)
         ~last_peer:(fun () -> Msglayer.last_peer_activity_s ml_s)
         ~on_failure:(fun () -> if live () || joins () then run_failover t b)
         ())

(* The failover sequence (§3.7), run on a surviving backup [b] when it
   declares the primary failed.  The first backup to do so halts the
   primary and opens the drain phase; with two backups each then drains
   its own log and the arbitration picks the one that takes over.
   Wall-clock is dominated by the NIC driver reload (99 % of the ~5 s
   reported in §4.4). *)
and run_failover t b =
  if not (takeover_started t) then begin
    note_takeover t (fun k -> { k with started = Some (Engine.now t.eng) });
    Metrics.Counter.incr
      (Metrics.Registry.counter (Engine.metrics t.eng) "cluster.failovers");
    Trace.warnf log ~eng:t.eng "failover: primary declared failed";
    (* No observed halt (e.g. a false-positive detection): record a
       zero-length detect phase so the timeline still has all four. *)
    if t.phase = None then next_phase t "failover.detect";
    end_phase t;
    (* IPI first, Degraded second: the halt hook must see the lifecycle
       still Protected so it does not read our own halt as an outage. *)
    Ipi.send_halt t.eng t.part_p;
    set_lifecycle t Degraded;
    Array.iter
      (fun o ->
        stop_hb o.hb_p;
        o.hb_p <- None)
      t.backups;
    stop_hb b.hb_s;
    b.hb_s <- None;
    next_phase t "failover.drain_replay"
  end;
  let name =
    if Array.length t.backups = 1 then "ft-failover"
    else Printf.sprintf "ft-failover-%d" b.idx
  in
  ignore
    (Kernel.spawn_thread b.kernel ~name (fun () ->
         (* 1. Drain the log: everything the primary managed to put in
            shared memory survives its crash and must be consumed.
            [Msglayer.drained] also covers the replay-executor pool, so
            with parallel replay this waits for every executor's queue —
            not just the dispatch loop — to run dry. *)
         let rec wait_drained () =
           if not (Msglayer.drained b.ml_s) then begin
             Engine.sleep (Time.ms 1);
             wait_drained ()
           end
         in
         wait_drained ();
         (* 2. Let replay finish consuming the drained log; require two
            consecutive idle observations to let in-progress operations
            settle. *)
         let rec wait_idle consecutive =
           if consecutive >= 2 then ()
           else begin
             Engine.sleep (Time.ms 1);
             if Namespace.replay_idle b.ns then wait_idle (consecutive + 1)
             else wait_idle 0
           end
         in
         wait_idle 0;
         if arbitrate t b then begin
           next_phase t "failover.driver_reload";
           Trace.infof log ~eng:t.eng "failover: log drained, replay complete";
           take_over t b
         end))

(* With two backups: exchange received LSNs over the backup-to-backup
   mailbox; the longer log wins, a tie goes to the lower id, and a peer
   that is dead or silent forfeits.  Quorum-1 output commit guarantees the
   winner's log covers every output a client may have seen.  The loser
   stands by, watching the winner until it is live. *)
and arbitrate t b =
  match t.arb with
  | None ->
      note_takeover t (fun k -> { k with winner = Some b.idx });
      true
  | Some arb ->
      let peer = t.backups.(1 - b.idx) in
      let my_lsn = Msglayer.received_lsn b.ml_s in
      let out, inb =
        if b.idx = 0 then (arb.Mailbox.a_to_b, arb.Mailbox.b_to_a)
        else (arb.Mailbox.b_to_a, arb.Mailbox.a_to_b)
      in
      ignore (Mailbox.try_send out ~bytes:16 (Lsn my_lsn));
      let deadline = Engine.now t.eng + (4 * t.cfg.hb_timeout) in
      let rec peer_lsn () =
        if Partition.is_halted peer.part then None
        else
          match Mailbox.recv_timeout inb ~deadline with
          | Some (Lsn l) -> Some l
          | Some Beat -> peer_lsn ()
          | None -> None
      in
      let peer_lsn = peer_lsn () in
      let wins =
        match peer_lsn with
        | None -> true
        | Some pl -> my_lsn > pl || (my_lsn = pl && b.idx < peer.idx)
      in
      Trace.warnf log ~eng:t.eng "backup %d: arbitration lsn=%d peer=%s -> %s"
        b.idx my_lsn
        (match peer_lsn with Some p -> string_of_int p | None -> "dead")
        (if wins then "takes over" else "stands by");
      if wins then note_takeover t (fun k -> { k with winner = Some b.idx });
      Option.iter
        (fun announced ->
          watch_peer t b ~out ~inb
            ~on_failure:
              (if wins then ignore else fun () -> standby_fails t b ~announced))
        peer_lsn;
      wins

(* Heartbeats between the arbitration winner and the standby, on the
   backup-to-backup mailbox (replacing [b]'s spent primary detector). *)
and watch_peer t b ~out ~inb ~on_failure =
  let last = ref (Engine.now t.eng) in
  ignore
    (Kernel.spawn_thread b.kernel ~name:"ft-arb-rx" (fun () ->
         let rec loop () =
           ignore (Mailbox.recv inb);
           last := Engine.now t.eng;
           loop ()
         in
         loop ()));
  b.hb_s <-
    Some
      (Heartbeat.start
         ~name:(Printf.sprintf "arb-%d" b.idx)
         ~spawn:(fun name f -> Kernel.spawn_thread b.kernel ~name f)
         ~eng:t.eng ~period:t.cfg.hb_period ~timeout:t.cfg.hb_timeout
         ~send:(fun ~seq:_ -> ignore (Mailbox.try_send out ~bytes:16 Beat))
         ~last_peer:(fun () -> !last)
         ~on_failure ())

(* The standby lost the winner before it went live.  Its log covers every
   released output if it is at least as long as the one the winner
   announced; otherwise nobody can serve. *)
and standby_fails t b ~announced =
  if not (takeover_completed t) then
    if Msglayer.received_lsn b.ml_s >= announced then begin
      Trace.warnf log ~eng:t.eng
        "backup %d: takeover winner died before going live; standby takes over"
        b.idx;
      note_takeover t (fun k -> { k with winner = Some b.idx });
      take_over t b
    end
    else begin
      Trace.warnf log ~eng:t.eng
        "backup %d: takeover winner died with a longer log: service outage"
        b.idx;
      Ipi.send_halt t.eng b.part;
      set_lifecycle t Outage
    end

(* Take over the network and go live on backup [b], whose log is drained
   and replayed; from then on it is the primary.  With re-protection the
   survivor additionally keeps recording into the live sink (journal) so a
   regenerated backup can be spliced in later. *)
and take_over t b =
  let reg = Engine.metrics t.eng in
  (* Bound later comparisons against the dead primary's digest at the
     survivor's replay point — everything beyond it died unreplicated with
     the primary — and close the epoch's digest pair.  The survivor's
     digest keeps growing as the primary's. *)
  (let cap = Option.map Digest.capture (Namespace.digest b.ns) in
   match b.pair with
   | Some (dp, ds) ->
       t.digest_pairs <- (dp, ds, cap) :: t.digest_pairs;
       b.pair <- None
   | None -> ());
  let promote_of restored =
    if t.cfg.reprotect then begin
      let sink = Option.get t.sink in
      (* The survivor's receive journal is the authoritative timeline now;
         the promoted primary appends to it. *)
      sink.ls_ml <- None;
      sink.ls_journal <- b.journal;
      Some
        {
          Namespace.pr_sink = sink_of_live_sink sink;
          pr_restored = restored;
          pr_output_commit = t.cfg.output_commit;
        }
    end
    else None
  in
  (* Take over the network: reload the driver, rebuild the TCP stack from
     the shadow's logical state, re-listen. *)
  (match t.nic with
  | Some nic ->
      let stack_s =
        Tcp.create (Netenv.of_kernel b.kernel) ~ip:t.cfg.server_ip ()
      in
      Nic.transfer nic ~owner:b.part ~rx:(Tcp.rx_callback stack_s);
      next_phase t "failover.golive";
      Tcp.bind_nic stack_s nic;
      let shadow = Namespace.shadow_of b.ns in
      let listeners =
        (* Re-create each listener group with the shard/backlog/overflow
           shape the replayed app registered, so accept routing and shed
           behaviour survive the failover. *)
        List.concat_map
          (fun lc ->
            let shards =
              Tcp.listen_group stack_s ~port:lc.Shadow.lc_port
                ~shards:lc.Shadow.lc_shards ?backlog:lc.Shadow.lc_backlog
                ~overflow:lc.Shadow.lc_overflow ()
            in
            Array.to_list
              (Array.map
                 (fun l -> ((lc.Shadow.lc_port, Tcp.listener_shard l), l))
                 shards))
          (Shadow.listener_configs shadow)
      in
      let restored = Shadow.restore_all shadow stack_s in
      (* Connections the application never accepted were sitting in the
         dead primary's accept queue; hand them to the fresh listeners (in
         establishment order) instead of orphaning them.  Output commit
         guarantees no response to them was ever released, so a fresh
         accept-and-serve is exactly-once from the client's point of
         view. *)
      List.iter
        (fun (cid, rc) ->
          if not (Shadow.was_accepted shadow ~cid) then
            Tcp.requeue_restored stack_s rc)
        (List.sort (fun (a, _) (b, _) -> compare a b) restored);
      Namespace.go_live b.ns ~stack:stack_s ~listeners
        ?promote:(promote_of restored) ()
  | None ->
      next_phase t "failover.golive";
      Namespace.go_live b.ns ?promote:(promote_of []) ());
  end_phase t;
  (* Role swap: the survivor is the primary from here on and the dead unit
     takes its backup slot — with re-protection until regeneration
     replaces it. *)
  let op = t.part_p and ok = t.kernel_p and on = t.ns_p in
  let oe = t.epoch_joined_p in
  t.part_p <- b.part;
  t.kernel_p <- b.kernel;
  t.ns_p <- b.ns;
  t.epoch_joined_p <- b.joined;
  b.part <- op;
  b.kernel <- ok;
  b.ns <- on;
  b.joined <- oe;
  watch_primary t t.part_p;
  if t.cfg.reprotect then schedule_reprotect t;
  note_takeover t (fun k -> { k with completed = Some (Engine.now t.eng) });
  Option.iter
    (fun s ->
      Metrics.Hist.record
        (Metrics.Registry.hist reg "cluster.failover_ns")
        (float_of_int (Engine.now t.eng - s)))
    (failover_started_at t);
  Trace.warnf log ~eng:t.eng "failover: secondary is live";
  (* A standby's log lacks the outputs the new primary releases
     unreplicated from here on, so it stands down and leaves the set. *)
  stop_heartbeats t;
  Array.iter
    (fun o ->
      if o != b && not (Partition.is_halted o.part) then begin
        o.left <- true;
        Ipi.send_halt t.eng o.part
      end)
    t.backups

(* A backup died.  Without re-protection the primary carries on
   replicated to the remaining backups, and once none is left runs solo,
   unreplicated, to the end of the run (the original behaviour).  With
   it, the primary keeps *recording* — appends flow into the journal — so
   a fresh backup can replay the full timeline and re-attach. *)
and on_backup_death t b =
  if not t.cfg.reprotect then begin
    Trace.warnf log ~eng:t.eng "secondary declared failed; primary runs solo";
    Ipi.send_halt t.eng b.part;
    (match t.group with
    | Some g -> Msglayer.group_disable g b.idx
    | None -> Msglayer.disable b.ml_p);
    if Array.for_all (fun o -> Msglayer.is_disabled o.ml_p) t.backups then
      Namespace.go_solo t.ns_p
  end
  else begin
    Trace.warnf log ~eng:t.eng
      "backup declared failed; primary degrades (journal keeps recording)";
    Ipi.send_halt t.eng b.part;
    stop_heartbeats t;
    (* The dead backup's digest froze at its replay point — a valid prefix
       of the primary's, so the pair closes uncapped. *)
    (match b.pair with
    | Some (dp, ds) ->
        t.digest_pairs <- (dp, ds, None) :: t.digest_pairs;
        b.pair <- None
    | None -> ());
    let sink = Option.get t.sink in
    (* Journal-direct appends from here; *then* release the dead message
       layer's stability waiters (they gate outputs now released
       unprotected — Degraded's defining property).  TCP hooks stay
       installed: the primary records, it does not go solo. *)
    sink.ls_ml <- None;
    Msglayer.disable b.ml_p;
    set_lifecycle t Degraded;
    schedule_reprotect t
  end
and schedule_reprotect t =
  ignore
    (Engine.timer t.eng
       ~at:(Engine.now t.eng + t.cfg.regen_delay)
       (fun () -> reprotect t))

and reprotect t =
  if t.cfg.reprotect && t.lifecycle = Degraded then
    ignore
      (Kernel.spawn_thread t.kernel_p ~name:"ft-reprotect" (fun () ->
           do_reprotect t))

(* Online backup regeneration: boot a fresh kernel on the recommissioned
   spare, stream the survivor's journal to it (accelerated replay models
   the Memlayout-guided state transfer) while the primary keeps serving
   and appending, then splice the new replica into the live stream in one
   non-yielding turn once consensus, the copy budget, and catch-up all
   hold.  The spliced backup's first wire LSN is exactly the journal
   length at the splice — no gap, no overlap. *)
and do_reprotect t =
  if not (t.cfg.reprotect && t.lifecycle = Degraded) then ()
  else begin
    let gen = t.regen_gen + 1 in
    t.regen_gen <- gen;
    let sink = Option.get t.sink in
    let ev = Engine.evlog t.eng in
    let reg = Engine.metrics t.eng in
    let new_epoch = t.epoch + 1 in
    let b = t.backups.(0) in
    Metrics.Counter.incr (Metrics.Registry.counter reg "cluster.reprotects");
    (* Power-cycle the failed unit's hardware and boot the replacement. *)
    let part_b =
      Machine.recommission t.machine b.part
        ~name:(Printf.sprintf "backup.e%d" new_epoch)
    in
    b.part <- part_b;
    b.joined <- new_epoch;
    set_lifecycle t Regenerating;
    let span =
      Evlog.span_begin ev ~pin:true ~comp:"ft.cluster" "reprotect.regen"
    in
    let regen_start = Engine.now t.eng in
    Trace.warnf log ~eng:t.eng
      "re-protection: regenerating backup for epoch %d (journal=%d records)"
      new_epoch sink.ls_journal.j_len;
    let kernel_b = Kernel.boot part_b ~config:t.cfg.kernel_config () in
    b.kernel <- kernel_b;
    let ns_b =
      Namespace.secondary kernel_b ~env:t.cfg.app_env
        ~det_shard:t.cfg.det_shard ()
    in
    b.ns <- ns_b;
    t.all_ns <- ns_b :: t.all_ns;
    let d_fresh = Digest.create () in
    Namespace.attach_digest ns_b d_fresh;
    ignore (Namespace.start_app ns_b t.app);
    (* Memlayout-guided snapshot budget: User pages must be copied before
       the switch (they gate the deadline), Delayed pages transfer lazily
       after it, Ignored kernel state is reconstructed by the fresh boot
       plus journal replay. *)
    let layout =
      match t.cfg.regen_layout with
      | Some l -> l
      | None -> Memlayout.create ~ram_bytes:(Partition.ram_bytes part_b)
    in
    let { Memlayout.ignored; delayed; user } = Memlayout.classify layout in
    let copy_ns =
      int_of_float (float_of_int user *. 1e9 /. float_of_int regen_bw)
    in
    let copy_deadline = regen_start + copy_ns in
    Evlog.emit ev ~comp:"ft.cluster" "reprotect.snapshot"
      ~args:
        [
          ("copied_user_bytes", Evlog.Int user);
          ("lazy_delayed_bytes", Evlog.Int delayed);
          ("reconstructed_ignored_bytes", Evlog.Int ignored);
        ];
    (* A fault on the regeneration target aborts the regeneration cleanly:
       the primary is unperturbed, the half-built replica is discarded,
       and a retry is scheduled. *)
    Partition.on_halt part_b (fun () ->
        if t.regen_gen = gen && t.lifecycle = Regenerating then begin
          t.regen_gen <- t.regen_gen + 1;
          Evlog.span_end ev span;
          Trace.warnf log ~eng:t.eng
            "re-protection aborted: regeneration target died; will retry";
          Metrics.Counter.incr
            (Metrics.Registry.counter reg "cluster.regen_aborts");
          set_lifecycle t Degraded;
          schedule_reprotect t
        end);
    (* The epoch switch is agreed through consensus between the two
       partitions (paper §6's path to coordinated membership change). *)
    let paxos =
      Paxos.create t.eng ~partitions:[ t.part_p; part_b ]
        ~mailbox_config:t.cfg.mailbox_config ()
    in
    Paxos.propose paxos ~node:0 ~instance:0 new_epoch;
    let fed = ref 0 in
    (* Next epoch's health monitor: sources start on the journal-feed
       cursors and switch to the spliced message layers at the switch. *)
    let live = ref None in
    let mon =
      match t.cfg.lagmon with
      | None -> None
      | Some lm_config ->
          let name = Printf.sprintf "lag.e%d" new_epoch in
          let m =
            Lagmon.start ~config:lm_config
              ~regenerating:(fun () ->
                t.regen_gen = gen && t.lifecycle = Regenerating)
              t.eng ~name
              {
                Lagmon.appended =
                  (fun () ->
                    match !live with
                    | Some (mlp, _) -> Msglayer.last_lsn mlp
                    | None -> sink.ls_journal.j_len - 1);
                acked =
                  (fun () ->
                    match !live with
                    | Some (mlp, _) -> Msglayer.acked mlp
                    | None -> !fed - 1);
                replayed =
                  (fun () ->
                    match !live with
                    | Some (_, mls) -> Msglayer.received_lsn mls
                    | None -> !fed - 1);
                queue_depth =
                  (fun () ->
                    match !live with
                    | Some (_, mls) -> Msglayer.queue_depth mls
                    | None -> sink.ls_journal.j_len - !fed);
                rtt =
                  (fun () ->
                    match !live with
                    | Some (mlp, _) -> Msglayer.last_rtt mlp
                    | None -> None);
                channels =
                  (fun () ->
                    match !live with
                    | Some (mlp, _) ->
                        List.map
                          (fun (c, emitted, _) ->
                            (c, emitted, Msglayer.chan_acked mlp ~chan:c))
                          (Namespace.chan_cursors t.ns_p)
                    | None -> []);
                alive =
                  (fun () ->
                    (t.regen_gen = gen && t.lifecycle = Regenerating)
                    || (t.epoch = new_epoch && t.lifecycle = Protected));
              }
          in
          t.lagmons <- (name, m) :: t.lagmons;
          Some m
    in
    (* The splice: one non-yielding turn from the final catch-up check to
       the new replica being live on the wire.  The simulation is
       cooperative, so no append can interleave — the cutoff read here is
       the cutoff the backup acks from. *)
    let splice () =
      let cutoff = sink.ls_journal.j_len in
      t.switch_cutoff <- Some cutoff;
      let duplex =
        Mailbox.duplex t.eng ~config:t.cfg.mailbox_config ~a:t.part_p
          ~b:part_b ()
      in
      Machine.on_coherency_loss t.machine
        ~partition_id:(Partition.id t.part_p) (fun () ->
          Mailbox.drop_in_flight duplex.Mailbox.a_to_b);
      Machine.on_coherency_loss t.machine ~partition_id:(Partition.id part_b)
        (fun () -> Mailbox.drop_in_flight duplex.Mailbox.b_to_a);
      let jb = journal_clone_prefix sink.ls_journal cutoff in
      let jp = sink.ls_journal in
      let ml_p' =
        Msglayer.create_primary ~batch:t.cfg.batch
          ~journal:(fun _ r -> journal_append jp r)
          ~base_lsn:cutoff t.eng ~out:duplex.Mailbox.a_to_b
          ~inb:duplex.Mailbox.b_to_a
      in
      let ml_s' =
        Msglayer.create_secondary ~batch:t.cfg.batch
          ~chan_progress:(fun () -> Namespace.chan_progress ns_b)
          ~chan_restore:(fun chans -> Namespace.chan_restore ns_b chans)
          ~journal:(fun _ r -> journal_append jb r)
          ~base_lsn:cutoff ~workers:t.cfg.replay_workers t.eng
          ~inb:duplex.Mailbox.a_to_b ~out:duplex.Mailbox.b_to_a
          ~replay_cost:t.cfg.kernel_config.Kernel.wake_latency
          ~delta_cost:delta_replay_cost
          ~handler:(fun record -> Namespace.record_handler ns_b record)
      in
      (* Bank the dead pair's traffic before dropping the handles. *)
      t.acc_msgs <- t.acc_msgs + Msglayer.traffic_msgs b.ml_p b.ml_s;
      t.acc_bytes <- t.acc_bytes + Msglayer.traffic_bytes b.ml_p b.ml_s;
      t.acc_records <- t.acc_records + Msglayer.p_records b.ml_p;
      b.ml_p <- ml_p';
      b.ml_s <- ml_s';
      b.journal <- jb;
      sink.ls_ml <- Some ml_p';
      t.epoch <- new_epoch;
      t.phase <- None;
      set_lifecycle t Protected;
      Evlog.span_end ev span;
      Metrics.Hist.record
        (Metrics.Registry.hist reg "cluster.reprotect_ns")
        (float_of_int (Engine.now t.eng - regen_start));
      (* Time to protected runs from the replica death that degraded the
         set, not from a retry after an aborted regeneration. *)
      Option.iter
        (fun tr ->
          Metrics.Hist.record
            (Metrics.Registry.hist reg "cluster.time_to_protected_ns")
            (float_of_int (Engine.now t.eng - tr.tr_at)))
        (List.find_opt
           (fun tr -> tr.tr_from = Protected && tr.tr_to = Degraded)
           t.transitions);
      Msglayer.spawn_primary_rx ml_p' (fun name f ->
          Kernel.spawn_thread t.kernel_p ~name f);
      Msglayer.spawn_secondary_rx ml_s' (fun name f ->
          Kernel.spawn_thread kernel_b ~name f);
      start_heartbeats t b ~epoch:new_epoch;
      live := Some (ml_p', ml_s');
      (* The replaced epoch's monitor was retired by a *planned* switch —
         report that, not a frozen last verdict. *)
      Option.iter Lagmon.retire b.mon;
      b.mon <- mon;
      Trace.warnf log ~eng:t.eng
        "re-protection complete: epoch %d protected (cutoff LSN %d)"
        new_epoch cutoff
    in
    (* Feed: replay the survivor's journal from LSN 0 on the fresh kernel,
       then keep chasing the live tail the primary appends meanwhile.
       Runs on the target kernel so a target fault kills it with the
       partition. *)
    ignore
      (Kernel.spawn_thread kernel_b ~name:"ft-regen-feed" (fun () ->
           let rec loop () =
             if t.regen_gen = gen && t.lifecycle = Regenerating then
               if !fed < sink.ls_journal.j_len then begin
                 let burst = min 64 (sink.ls_journal.j_len - !fed) in
                 for _ = 1 to burst do
                   Namespace.record_handler ns_b
                     (journal_get sink.ls_journal !fed);
                   incr fed
                 done;
                 Engine.sleep (Time.us 5);
                 loop ()
               end
               else if
                 (not (Namespace.replay_idle ns_b))
                 || Engine.now t.eng < copy_deadline
                 || Paxos.chosen paxos ~node:0 ~instance:0 = None
               then begin
                 Engine.sleep (Time.us 50);
                 loop ()
               end
               else splice ()
           in
           loop ()))
  end

let check_shape c =
  let reject why = invalid_arg ("Cluster.create: " ^ why) in
  if c.replicas <> 2 && c.replicas <> 3 then
    reject (Printf.sprintf "%d replicas (2 or 3 supported)" c.replicas);
  if c.replicas = 3 then begin
    if c.reprotect then reject "re-protection needs replicas = 2";
    (match c.split with
    | `Asymmetric _ -> reject "three replicas need a symmetric split"
    | `Symmetric -> ());
    if c.topology.Topology.numa_nodes mod 4 <> 0 then
      reject "three replicas need a NUMA node count divisible by 4"
  end

let create eng ?(config = default_config) ?link ~app () =
  check_shape config;
  let machine = Machine.create eng config.topology in
  let part_p, parts_b =
    match config.split with
    | `Symmetric when config.replicas = 3 ->
        let p, b0, b1 = Machine.split_half_quarters machine in
        (p, [| b0; b1 |])
    | `Symmetric ->
        let p, s = Machine.split_symmetric machine in
        (p, [| s |])
    | `Asymmetric primary_cores ->
        let p, s = Machine.split_asymmetric machine ~primary_cores in
        (p, [| s |])
  in
  let single = Array.length parts_b = 1 in
  let kernel_p = Kernel.boot part_p ~config:config.kernel_config () in
  let kernels_b =
    Array.map (fun p -> Kernel.boot p ~config:config.kernel_config ()) parts_b
  in
  let duplexes =
    Array.map
      (fun pb ->
        Mailbox.duplex eng ~config:config.mailbox_config ~a:part_p ~b:pb ())
      parts_b
  in
  (* A coherency-disrupting fault loses whatever the victim had in flight
     in its outbound rings (§3.5's rare worst case). *)
  Array.iteri
    (fun i d ->
      Machine.on_coherency_loss machine ~partition_id:(Partition.id part_p)
        (fun () -> Mailbox.drop_in_flight d.Mailbox.a_to_b);
      Machine.on_coherency_loss machine
        ~partition_id:(Partition.id parts_b.(i))
        (fun () -> Mailbox.drop_in_flight d.Mailbox.b_to_a))
    duplexes;
  (* Dual journals (re-protection only): the primary spools appends at LSN
     assignment, the backup spools receives in LSN order — whichever side
     survives a fault holds the full authoritative timeline. *)
  let jp = journal_create () in
  let jbs = Array.map (fun _ -> journal_create ()) parts_b in
  let sink_opt =
    if config.reprotect then Some { ls_ml = None; ls_journal = jp } else None
  in
  let ml_ps =
    Array.map
      (fun d ->
        Msglayer.create_primary ~batch:config.batch
          ?journal:
            (if config.reprotect then Some (fun _ r -> journal_append jp r)
             else None)
          eng ~out:d.Mailbox.a_to_b ~inb:d.Mailbox.b_to_a)
      duplexes
  in
  (match sink_opt with Some ls -> ls.ls_ml <- Some ml_ps.(0) | None -> ());
  (* With two backups the log fans out to both; output commit waits for a
     quorum of one backup acknowledgement (a majority of the three
     replicas), so any released output survives any single failure. *)
  let group =
    if single then None
    else Some (Msglayer.create_group (Array.to_list ml_ps) ~quorum:1)
  in
  (* Primary-side network stack (the paper's primary owns all devices). *)
  let nic, stack_p =
    match link with
    | None -> (None, None)
    | Some ep ->
        let nic = Nic.create eng ~driver_load_time:config.driver_load_time ep in
        let stack =
          Tcp.create (Netenv.of_kernel kernel_p) ~ip:config.server_ip ()
        in
        Tcp.bind_nic stack nic;
        Nic.attach nic ~owner:part_p ~rx:(Tcp.rx_callback stack) ();
        (Some nic, Some stack)
  in
  let ns_p =
    Namespace.primary kernel_p
      ~sink:
        (match (group, sink_opt) with
        | Some g, _ -> Msglayer.sink_of_group g
        | None, Some ls -> sink_of_live_sink ls
        | None, None -> Msglayer.sink_of_primary ml_ps.(0))
      ?stack:stack_p ~env:config.app_env ~det_shard:config.det_shard
      ~output_commit:config.output_commit ()
  in
  (* The launch procedure replicates the environment to the backups so
     every replica starts the application identically (3). *)
  let ns_bs =
    Array.map
      (fun k ->
        Namespace.secondary k ~env:config.app_env ~det_shard:config.det_shard
          ())
      kernels_b
  in
  let ml_ss =
    Array.mapi
      (fun i d ->
        let ns = ns_bs.(i) and jb = jbs.(i) in
        Msglayer.create_secondary ~batch:config.batch
          ~chan_progress:(fun () -> Namespace.chan_progress ns)
          ~chan_restore:(fun chans -> Namespace.chan_restore ns chans)
          ?journal:
            (if config.reprotect then Some (fun _ r -> journal_append jb r)
             else None)
          ~workers:config.replay_workers eng ~inb:d.Mailbox.a_to_b
          ~out:d.Mailbox.b_to_a
          ~replay_cost:config.kernel_config.Kernel.wake_latency
          ~delta_cost:delta_replay_cost
          ~handler:(fun record -> Namespace.record_handler ns record))
      duplexes
  in
  Array.iter
    (fun ml ->
      Msglayer.spawn_primary_rx ml (fun name f ->
          Kernel.spawn_thread kernel_p ~name f))
    ml_ps;
  Array.iteri
    (fun i ml ->
      Msglayer.spawn_secondary_rx ml (fun name f ->
          Kernel.spawn_thread kernels_b.(i) ~name f))
    ml_ss;
  let arb =
    if single then None
    else Some (Mailbox.duplex eng ~a:parts_b.(0) ~b:parts_b.(1) ())
  in
  let d_p = Digest.create () in
  let d_bs = Array.map (fun _ -> Digest.create ()) parts_b in
  let backups =
    Array.mapi
      (fun i part ->
        {
          idx = i;
          part;
          kernel = kernels_b.(i);
          ml_p = ml_ps.(i);
          ml_s = ml_ss.(i);
          ns = ns_bs.(i);
          joined = 0;
          hb_p = None;
          hb_s = None;
          mon = None;
          pair = Some (d_p, d_bs.(i));
          journal = jbs.(i);
          left = false;
        })
      parts_b
  in
  let t =
    {
      eng;
      cfg = config;
      machine;
      app;
      nic;
      sink = sink_opt;
      group;
      arb;
      part_p;
      kernel_p;
      ns_p;
      epoch_joined_p = 0;
      backups;
      lifecycle = Protected;
      epoch = 0;
      takeovers = [];
      transitions = [];
      subs = [];
      regen_gen = 0;
      switch_cutoff = None;
      digest_pairs = [];
      all_ns = Array.fold_left (fun acc ns -> ns :: acc) [ ns_p ] ns_bs;
      lagmons = [];
      acc_msgs = 0;
      acc_bytes = 0;
      acc_records = 0;
      phase = None;
    }
  in
  Array.iter (fun b -> start_heartbeats t b ~epoch:0) backups;
  (* Replication-health monitoring: closures over the message layer and the
     primary's Det channel cursors, all pure reads — see the determinism
     contract in {!Lagmon}.  One monitor per backup log. *)
  (match config.lagmon with
  | None -> ()
  | Some lm_config ->
      Array.iter
        (fun b ->
          let name = if single then "lag" else Printf.sprintf "lag.b%d" b.idx in
          start_lagmon t b ~name lm_config)
        backups);
  watch_primary t part_p;
  (* Divergence checking: every replica folds incremental state digests,
     compared snapshot-by-snapshot after the run (chaos campaigns). *)
  Namespace.attach_digest ns_p d_p;
  Array.iteri (fun i ns -> Namespace.attach_digest ns d_bs.(i)) ns_bs;
  ignore (Namespace.start_app ns_p app);
  Array.iter (fun ns -> ignore (Namespace.start_app ns app)) ns_bs;
  t

(* Every fault resolves its target here, when it fires: roles move at
   every takeover and epoch switch.  A target already halted absorbs the
   fault ({!Machine.apply}). *)
let strike t target ~disrupts kind =
  let part =
    match target with
    | Replica_set.T_primary -> t.part_p
    | T_backup i -> t.backups.(i mod Array.length t.backups).part
  in
  Machine.apply t.machine
    (Fault.at ~disrupts_coherency:disrupts (Engine.now t.eng)
       ~partition_id:(Partition.id part) kind)

let inject t ~target ~at ~disrupts kind =
  Engine.schedule t.eng ~at (fun () -> strike t target ~disrupts kind)

let kill t ~role ~at =
  ignore
    (Engine.timer t.eng ~at (fun () ->
         let target =
           match role with
           | Replica_set.Primary -> Replica_set.T_primary
           | Backup ->
               let up b = not (b.left || Partition.is_halted b.part) in
               T_backup
                 (Option.value ~default:0 (Array.find_index up t.backups))
         in
         strike t target ~disrupts:false Fault.Core_failstop))

(* {1 Baseline} *)

let create_standalone eng ?(topology = Topology.opteron_testbed) ?cores
    ?(server_ip = "10.0.0.1") ?link ~app () =
  let machine = Machine.create eng topology in
  let cores =
    match cores with Some c -> c | None -> Topology.total_cores topology / 2
  in
  let nodes = List.init (topology.Topology.numa_nodes / 2) Fun.id in
  let part =
    Machine.add_partition machine ~name:"ubuntu" ~cores
      ~ram_bytes:(topology.Topology.ram_bytes / 2)
      ~numa_nodes:nodes
  in
  let kernel = Kernel.boot part () in
  let stack =
    match link with
    | None -> None
    | Some ep ->
        let nic = Nic.create eng ~driver_load_time:0 ep in
        let stack =
          Tcp.create (Netenv.of_kernel kernel) ~ip:server_ip ()
        in
        Tcp.bind_nic stack nic;
        Nic.attach nic ~owner:part ~rx:(Tcp.rx_callback stack) ();
        Some stack
  in
  let ns = Namespace.standalone kernel ?stack () in
  ignore (Namespace.start_app ns app);
  kernel
