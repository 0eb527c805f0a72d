type owner = string

type waiter = {
  w_owner : owner;
  w_mode : Mode.t;
  w_resume : unit Sim.Engine.resumer;
  mutable w_cancelled : bool;
  mutable w_installed : bool; (* a grant made [w_owner] a holder *)
}

type entry = {
  mutable held : (owner * Mode.t) list; (* unordered *)
  queue : waiter Queue.t;
}

type t = {
  eng : Sim.Engine.t;
  entries : (string, entry) Hashtbl.t;
  metrics : Sim.Metrics.t option;
}

let create ?metrics eng = { eng; entries = Hashtbl.create 64; metrics }

let bump t name =
  match t.metrics with Some m -> Sim.Metrics.incr m name | None -> ()

(* The table holds live entries only: an entry is filed when a grant or a
   queued waiter needs it and reclaimed as soon as it has neither, so the
   action-end walks ([release_all], [transfer_all]) cost the locks in
   flight, not every key ever locked. *)
let entry t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e = { held = []; queue = Queue.create () } in
      Hashtbl.add t.entries key e;
      e

let live e = e.held <> [] || not (Queue.is_empty e.queue)

(* Reclaim [e] once dead — but only while it is still the entry filed
   under [key]. A waiter holds its entry across a suspension; if
   [release_everything] detached it meanwhile and a later request filed a
   fresh entry for the same key, the waiter's timeout must leave the
   fresh one alone. *)
let reclaim t key e =
  if not (live e) then
    match Hashtbl.find_opt t.entries key with
    | Some e' when e' == e -> Hashtbl.remove t.entries key
    | _ -> ()

let held_mode e owner =
  List.assoc_opt owner e.held

(* Hierarchical action ids: "c:1.2" is a descendant of "c:1". A nested
   action may share its ancestors' locks (Arjuna lock inheritance); the
   lock it acquires is recorded in its own name and folds back into the
   parent on nested commit via [transfer_all]. *)
let is_descendant ~ancestor owner =
  let la = String.length ancestor in
  String.length owner > la
  && String.sub owner 0 la = ancestor
  && owner.[la] = '.'

(* A request is grantable when compatible with every holder other than the
   requester itself (merging its own weaker lock) and the requester's
   ancestors (inheriting theirs). *)
let grantable e ~owner ~mode =
  List.for_all
    (fun (o, m) ->
      String.equal o owner || is_descendant ~ancestor:o owner
      || Mode.compatible m mode)
    e.held

let install e ~owner ~mode =
  let merged =
    match held_mode e owner with
    | Some old -> Mode.strongest old mode
    | None -> mode
  in
  e.held <- (owner, merged) :: List.remove_assoc owner e.held

(* Wake queued waiters in order; stop at the first one that still cannot be
   granted, preserving queue fairness. Cancelled waiters are discarded. *)
let rec service e =
  match Queue.peek_opt e.queue with
  | None -> ()
  | Some w when w.w_cancelled ->
      ignore (Queue.pop e.queue);
      service e
  | Some w ->
      if grantable e ~owner:w.w_owner ~mode:w.w_mode then begin
        ignore (Queue.pop e.queue);
        w.w_installed <- held_mode e w.w_owner = None;
        install e ~owner:w.w_owner ~mode:w.w_mode;
        w.w_resume (Ok ());
        service e
      end

(* Validate-under-mode query: would [owner] get [mode] on [key] right now,
   without installing anything? True when a covering lock is already held,
   or when the request is compatible with every other holder and no earlier
   waiter is queued (the same fairness rule [try_acquire] applies). Pure:
   the lock table is unchanged, so a caller can probe before mutating any
   state the grant would protect. *)
let available t ~owner ~mode key =
  match Hashtbl.find_opt t.entries key with
  | None -> true
  | Some e -> (
      match held_mode e owner with
      | Some held when Mode.covers held mode -> true
      | Some _ -> grantable e ~owner ~mode
      | None -> Queue.is_empty e.queue && grantable e ~owner ~mode)

(* A fresh entry always grants, so the refusal path never files one. *)
let try_acquire t ~owner ~mode key =
  let e = entry t key in
  match held_mode e owner with
  | Some held when Mode.covers held mode ->
      bump t "lock.reentrant";
      true
  | _ ->
      if Queue.is_empty e.queue && grantable e ~owner ~mode then begin
        install e ~owner ~mode;
        bump t "lock.granted";
        true
      end
      else false

let acquire t ~owner ~mode ?timeout key =
  let e = entry t key in
  match held_mode e owner with
  | Some held when Mode.covers held mode ->
      bump t "lock.reentrant";
      Ok ()
  | Some _ ->
      (* Non-covering re-request while holding a weaker lock: waiting could
         self-deadlock (we would wait for our own lock), so treat it as an
         immediate promotion attempt. *)
      if grantable e ~owner ~mode then begin
        install e ~owner ~mode;
        bump t "lock.promoted";
        Ok ()
      end
      else begin
        bump t "lock.promotion_refused";
        Error `Timeout
      end
  | None ->
      if Queue.is_empty e.queue && grantable e ~owner ~mode then begin
        install e ~owner ~mode;
        bump t "lock.granted";
        Ok ()
      end
      else begin
        bump t "lock.waited";
        let wait register =
          match timeout with
          | None -> Ok (Sim.Engine.suspend t.eng register)
          | Some dt -> (
              match Sim.Engine.timeout t.eng dt register with
              | Ok () -> Ok ()
              | Error _ -> Error `Timeout)
        in
        let waiter_ref = ref None in
        let outcome =
          wait (fun resume ->
              let w =
                {
                  w_owner = owner;
                  w_mode = mode;
                  w_resume = resume;
                  w_cancelled = false;
                  w_installed = false;
                }
              in
              waiter_ref := Some w;
              Queue.push w e.queue)
        in
        (match outcome with
        | Ok () -> bump t "lock.granted_after_wait"
        | Error `Timeout -> (
            bump t "lock.timeout";
            match !waiter_ref with
            | Some w ->
                w.w_cancelled <- true;
                (* A release can grant us after the timer fired but before
                   this fiber resumed; the caller is told [Timeout], so
                   give the grant back. *)
                if w.w_installed then
                  e.held <- List.remove_assoc owner e.held;
                (* Our dead entry may have been blocking the queue head. *)
                service e;
                reclaim t key e
            | None -> ()));
        outcome
      end

let promote t ~owner ~to_mode key =
  match Hashtbl.find_opt t.entries key with
  | None -> false
  | Some e -> (
      match held_mode e owner with
      | None -> false
      | Some held when Mode.covers held to_mode -> true
      | Some _ ->
          if grantable e ~owner ~mode:to_mode then begin
            install e ~owner ~mode:to_mode;
            bump t "lock.promoted";
            true
          end
          else begin
            bump t "lock.promotion_refused";
            false
          end)

let release t ~owner key =
  match Hashtbl.find_opt t.entries key with
  | None -> ()
  | Some e ->
      if List.mem_assoc owner e.held then begin
        e.held <- List.remove_assoc owner e.held;
        bump t "lock.released";
        service e;
        if not (live e) then Hashtbl.remove t.entries key
      end

(* Walk the live table in its own iteration order and reclaim in place.
   The order in which waiters on different keys wake decides the order of
   their resumptions, and seeded runs depend on it: servicing the keys in
   any other order (say, through an owner-to-keys index) changes them. *)
let release_all t ~owner =
  let cancel w = if String.equal w.w_owner owner then w.w_cancelled <- true in
  Hashtbl.filter_map_inplace
    (fun _ e ->
      Queue.iter cancel e.queue;
      if List.mem_assoc owner e.held then begin
        e.held <- List.remove_assoc owner e.held;
        bump t "lock.released"
      end;
      service e;
      if live e then Some e else None)
    t.entries

(* Detach every entry: a waiter still suspended on one (it will time out,
   or never resume) finds it gone and, by [reclaim]'s identity check,
   cannot disturb entries filed after the crash. *)
let release_everything t =
  Hashtbl.iter
    (fun _ e ->
      e.held <- [];
      Queue.iter (fun w -> w.w_cancelled <- true) e.queue;
      Queue.clear e.queue)
    t.entries;
  Hashtbl.reset t.entries

(* Moving a holder never empties an entry, so nothing is reclaimed here. *)
let transfer_all t ~from_owner ~to_owner =
  Hashtbl.iter
    (fun _ e ->
      match List.assoc_opt from_owner e.held with
      | None -> ()
      | Some m ->
          e.held <- List.remove_assoc from_owner e.held;
          let merged =
            match List.assoc_opt to_owner e.held with
            | Some m' -> Mode.strongest m m'
            | None -> m
          in
          e.held <- (to_owner, merged) :: List.remove_assoc to_owner e.held)
    t.entries

let holds t ~owner key =
  match Hashtbl.find_opt t.entries key with
  | None -> None
  | Some e -> held_mode e owner

let holders t key =
  match Hashtbl.find_opt t.entries key with
  | None -> []
  | Some e -> List.sort (fun (a, _) (b, _) -> String.compare a b) e.held

let waiting t key =
  match Hashtbl.find_opt t.entries key with
  | None -> 0
  | Some e ->
      Queue.fold (fun n w -> if w.w_cancelled then n else n + 1) 0 e.queue

let all_held t =
  Hashtbl.fold
    (fun key e acc ->
      if e.held = [] then acc
      else
        ( key,
          List.sort (fun (a, _) (b, _) -> String.compare a b) e.held )
        :: acc)
    t.entries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let locked_keys t ~owner =
  Hashtbl.fold
    (fun key e acc -> if List.mem_assoc owner e.held then key :: acc else acc)
    t.entries []
  |> List.sort String.compare

let live_entries t = Hashtbl.length t.entries

let pp ppf t =
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [] |> List.sort String.compare
  in
  List.iter
    (fun key ->
      let e = Hashtbl.find t.entries key in
      Format.fprintf ppf "%s:" key;
      List.iter
        (fun (o, m) -> Format.fprintf ppf " %s=%a" o Mode.pp m)
        (List.sort (fun (a, _) (b, _) -> String.compare a b) e.held);
      let q = waiting t key in
      if q > 0 then Format.fprintf ppf " (+%d waiting)" q;
      Format.fprintf ppf "@.")
    keys
