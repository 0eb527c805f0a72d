type record = {
  r_version : Store.Version.t;
  r_ops : string list; (* application order *)
  r_stamp : float; (* virtual time of the append, drives age compaction *)
}

type t = {
  metrics : Sim.Metrics.t;
  mutable max_records : int;
  mutable max_age : float;
  (* Each table is keyed first by the node whose crash forgets it, so a
     crash hook drops one inner table instead of scanning every entry.

     server node -> uid serial -> newest first. Logs are volatile with
     the node's instances: a crash drops them (the stores' committed
     states, not the logs, are the durable truth). *)
  logs : (Net.Network.node_id, (int, record list ref) Hashtbl.t) Hashtbl.t;
  (* client -> (store, uid serial) -> last committed counter the store is
     known to have applied — known because the store acknowledged the
     phase-2 commit of that version, or reported its counter in a
     delta-miss vote. Entries are hints: a stale or missing entry only
     costs a full-state fallback, never correctness. *)
  vv :
    ( Net.Network.node_id,
      (Net.Network.node_id * int, int) Hashtbl.t )
    Hashtbl.t;
  (* store -> uid serial -> highest committed counter ANY client has seen
     the store acknowledge — seeded from the committed-version levels that
     prepare votes and delta-miss votes piggyback. A writer that has never
     committed to the store itself starts from this shared floor instead
     of shipping full state. Monotone (max-merge): versions are global per
     object, so the floor is a valid lower bound on the store's committed
     counter; a stale floor costs a delta-miss retry, never correctness. *)
  sv : (Net.Network.node_id, (int, int) Hashtbl.t) Hashtbl.t;
  (* (uid serial, counter) -> (committed_by, payload): what a full-state
     install of that version would have written; the chaos audit holds
     delta-applied store states to byte equality against it. The identity
     stamp matters: two racing actions can both RECORD a shadow for the
     same counter before 2PC decides between them, and the loser's entry
     must never be compared against the winner's committed bytes. Bounded
     sliding window. *)
  golden : (int * int, (string * string) list) Hashtbl.t;
}

let golden_window = 64

let create ?(max_records = 12) ?(max_age = 180.0) metrics =
  {
    metrics;
    max_records;
    max_age;
    logs = Hashtbl.create 8;
    vv = Hashtbl.create 8;
    sv = Hashtbl.create 8;
    golden = Hashtbl.create 64;
  }

let set_limits t ?max_records ?max_age () =
  Option.iter (fun n -> t.max_records <- n) max_records;
  Option.iter (fun a -> t.max_age <- a) max_age

(* The inner table of [node] in a node-keyed table, created on first
   use. *)
let inner tbl node =
  match Hashtbl.find_opt tbl node with
  | Some i -> i
  | None ->
      let i = Hashtbl.create 16 in
      Hashtbl.add tbl node i;
      i

let log_cell t ~node ~uid =
  let logs = inner t.logs node in
  let serial = Store.Uid.serial uid in
  match Hashtbl.find_opt logs serial with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add logs serial r;
      r

let find_log t ~node ~uid =
  match Hashtbl.find_opt t.logs node with
  | None -> None
  | Some logs -> Hashtbl.find_opt logs (Store.Uid.serial uid)

(* Enforce the compaction policy on one log, charging the truncation
   metrics for every record dropped. *)
let compact t ~now cell =
  let kept = ref 0 and dropped = ref 0 in
  let keep r =
    let fresh = now -. r.r_stamp <= t.max_age in
    if fresh && !kept < t.max_records then begin
      incr kept;
      true
    end
    else begin
      incr dropped;
      false
    end
  in
  cell := List.filter keep !cell;
  if !dropped > 0 then begin
    Sim.Metrics.incr t.metrics "oplog.truncations" ~by:!dropped;
    Sim.Metrics.incr t.metrics "oplog.resident_records" ~by:(- !dropped)
  end

let append t ~now ~node ~uid ~version ~ops =
  let cell = log_cell t ~node ~uid in
  cell := { r_version = version; r_ops = ops; r_stamp = now } :: !cell;
  Sim.Metrics.incr t.metrics "oplog.resident_records";
  compact t ~now cell

let records t ~node ~uid =
  match find_log t ~node ~uid with
  | None -> []
  | Some cell -> List.rev_map (fun r -> (r.r_version, r.r_ops)) !cell

let install t ~now ~node ~uid entries =
  let cell = log_cell t ~node ~uid in
  let before = List.length !cell in
  cell :=
    List.rev_map
      (fun (version, ops) -> { r_version = version; r_ops = ops; r_stamp = now })
      entries;
  Sim.Metrics.incr t.metrics "oplog.resident_records"
    ~by:(List.length !cell - before);
  compact t ~now cell

let truncate_below t ~node ~uid ~counter =
  match find_log t ~node ~uid with
  | None -> ()
  | Some cell ->
      let kept, dropped =
        List.partition
          (fun r -> r.r_version.Store.Version.counter >= counter)
          !cell
      in
      cell := kept;
      if dropped <> [] then begin
        let n = List.length dropped in
        Sim.Metrics.incr t.metrics "oplog.truncations" ~by:n;
        Sim.Metrics.incr t.metrics "oplog.resident_records" ~by:(-n)
      end

let drop_node t node =
  match Hashtbl.find_opt t.logs node with
  | None -> ()
  | Some logs ->
      Hashtbl.remove t.logs node;
      let n = Hashtbl.fold (fun _ cell acc -> acc + List.length !cell) logs 0 in
      Sim.Metrics.incr t.metrics "oplog.resident_records" ~by:(-n)

(* The client-side decision rule: a chain (oldest first, as presented in a
   commit view) covers (base, upto] iff it contains a contiguous run of
   versions base+1 .. upto with a non-empty op list at every step. Any
   gap — compaction, a replica that joined late, an op that was never
   recorded — disqualifies the delta; the caller ships full state. *)
let suffix_of chain ~base ~upto =
  if upto <= base then None
  else
    let wanted =
      List.filter
        (fun ((v : Store.Version.t), _) -> v.counter > base && v.counter <= upto)
        chain
    in
    let rec contiguous prev = function
      | [] -> (
          match prev with
          | Some (p : Store.Version.t) -> p.counter = upto
          | None -> false)
      | ((v : Store.Version.t), ops) :: rest ->
          ops <> []
          && (match prev with
             | None -> v.counter = base + 1
             | Some p -> Store.Version.follows v p)
          && contiguous (Some v) rest
    in
    if contiguous None wanted then Some wanted else None

(* --- per-store acknowledged-version vector --- *)

let last_acked t ~client ~store ~uid =
  match Hashtbl.find_opt t.vv client with
  | None -> None
  | Some acks -> Hashtbl.find_opt acks (store, Store.Uid.serial uid)

let forget_ack t ~client ~store ~uid =
  match Hashtbl.find_opt t.vv client with
  | None -> ()
  | Some acks -> Hashtbl.remove acks (store, Store.Uid.serial uid)

let note_acked t ~client ~store ~uid counter =
  if counter < 0 then forget_ack t ~client ~store ~uid
  else Hashtbl.replace (inner t.vv client) (store, Store.Uid.serial uid) counter

let note_store t ~store ~uid counter =
  if counter >= 0 then begin
    let floors = inner t.sv store in
    let serial = Store.Uid.serial uid in
    match Hashtbl.find_opt floors serial with
    | Some c when c >= counter -> ()
    | _ -> Hashtbl.replace floors serial counter
  end

let store_floor t ~store ~uid =
  match Hashtbl.find_opt t.sv store with
  | None -> None
  | Some floors -> Hashtbl.find_opt floors (Store.Uid.serial uid)

(* The delta-base lookup: the per-client ack and the shared floor are
   both lower bounds on the store's (monotone) committed counter — the
   ack because the store confirmed THIS client's commit, the floor
   because it confirmed SOMEBODY's. Take the max: with writers
   interleaving, a client's own ack lags by the other writers'
   intervening commits, and only the floor keeps the base close enough
   for the commit view's chain to cover the gap. An overshooting base is
   still safe (the store votes a delta miss and the retry ships full
   state). *)
let known_version t ~client ~store ~uid =
  match (last_acked t ~client ~store ~uid, store_floor t ~store ~uid) with
  | Some a, Some f -> Some (max a f)
  | (Some _ as k), None | None, (Some _ as k) -> k
  | None, None -> None

let drop_store t store = Hashtbl.remove t.sv store
let drop_client t client = Hashtbl.remove t.vv client

(* --- golden full-state shadow (audit support) --- *)

let record_golden t ~uid ~version ~payload =
  let serial = Store.Uid.serial uid in
  let counter = version.Store.Version.counter in
  let by = version.Store.Version.committed_by in
  let prior =
    Option.value ~default:[] (Hashtbl.find_opt t.golden (serial, counter))
  in
  Hashtbl.replace t.golden (serial, counter)
    ((by, payload) :: List.remove_assoc by prior);
  Hashtbl.remove t.golden (serial, counter - golden_window)

let golden t ~uid ~version =
  let serial = Store.Uid.serial uid in
  let counter = version.Store.Version.counter in
  Option.bind
    (Hashtbl.find_opt t.golden (serial, counter))
    (List.assoc_opt version.Store.Version.committed_by)

let resident t = Sim.Metrics.counter t.metrics "oplog.resident_records"
