type group = { gid : int; mutable alive : bool }

(* An event's due time and insertion order live in the queue's keys
   ({!Heap}), so the record holds only what the run loop reads.
   [daemon] doubles as the "no longer counted in [nondaemon_queued]" bit:
   true from birth for daemon wakeups, flipped on pop (when the count is
   released) and by {!timeout}'s demotion of guard timers whose operation
   already settled. Both paths are idempotent through the flag. *)
type event = { thunk : unit -> unit; mutable daemon : bool }

(* A parked fiber: one node of the engine's intrusive ring of suspensions,
   which {!leaked_fibers} walks. [fired] makes the resumer idempotent; an
   unlinked node points at itself, so unlinking twice is harmless. *)
type suspension = {
  s_name : string;
  s_group : group;
  s_daemon : bool;
  mutable fired : bool;
  mutable prev : suspension;
  mutable next : suspension;
}

type t = {
  mutable clock : float;
  mutable gid : int;
  queue : event Heap.t;
  root : group;
  engine_rng : Rng.t;
  mutable fiber_error : exn option;
  mutable processed : int;
  mutable suspended : int;
  parked : suspension; (* sentinel of the suspension ring *)
  mutable detect_deadlock : bool;
  mutable nondaemon_queued : int;
      (* queued events that represent real work; a drain-mode [run] stops
         when only daemon wakeups (idle periodic fibers) remain *)
  mutable next_suspend_daemon : bool;
      (* set by [daemon_sleep] just before performing Suspend, consumed by
         the handler to flag the parked suspension as a daemon's *)
  handler : (unit, unit) Effect.Deep.handler;
}

exception Deadlock of string
exception Timed_out

type 'a resumer = ('a, exn) result -> unit

type _ Effect.t += Suspend : ('a resumer -> unit) -> 'a Effect.t

(* The group and name of the fiber code currently executing. Every code
   path that runs fiber code (initial start, resumption) sets both first;
   they are never read outside fiber code, so stale values between events
   are harmless. The shared handler reads them to tag a suspension and to
   name a fiber that died. *)
let current_group : group ref = ref { gid = -1; alive = true }
let current_name = ref "fiber"

let sentinel () =
  let rec s =
    {
      s_name = "";
      s_group = { gid = -1; alive = false };
      s_daemon = false;
      fired = true;
      prev = s;
      next = s;
    }
  in
  s

let unlink s =
  s.prev.next <- s.next;
  s.next.prev <- s.prev;
  s.prev <- s;
  s.next <- s

let push_ev ?(daemon = false) t ~delay thunk =
  let delay = if delay < 0.0 then 0.0 else delay in
  let e = { thunk; daemon } in
  if not daemon then t.nondaemon_queued <- t.nondaemon_queued + 1;
  Heap.push t.queue (t.clock +. delay) e;
  e

let push ?daemon t ~delay thunk = ignore (push_ev ?daemon t ~delay thunk : event)

let release_count t e =
  if not e.daemon then begin
    e.daemon <- true;
    t.nondaemon_queued <- t.nondaemon_queued - 1
  end

(* The resumer handed to a registrant: idempotent, and only while the
   fiber's group is alive, it schedules the continuation as a fresh
   zero-delay event. A killed group drops resumptions, so the fiber
   disappears at its suspension point without unwinding — matching
   fail-silent crash semantics. *)
let resume t s k r =
  if not s.s_group.alive then unlink s
  else if not s.fired then begin
    s.fired <- true;
    t.suspended <- t.suspended - 1;
    unlink s;
    push t ~delay:0.0 (fun () ->
        if s.s_group.alive then begin
          current_group := s.s_group;
          current_name := s.s_name;
          match r with
          | Ok v -> Effect.Deep.continue k v
          | Error e -> Effect.Deep.discontinue k e
        end)
  end

let park t k register =
  t.suspended <- t.suspended + 1;
  let daemon = t.next_suspend_daemon in
  t.next_suspend_daemon <- false;
  let ring = t.parked in
  let s =
    {
      s_name = !current_name;
      s_group = !current_group;
      s_daemon = daemon;
      fired = false;
      prev = ring.prev;
      next = ring;
    }
  in
  ring.prev.next <- s;
  ring.prev <- s;
  register (fun r -> resume t s k r)

(* One deep handler per engine, shared by every fiber: it reads the
   running fiber's group and name from the globals above instead of
   capturing them, so [spawn] allocates no handler of its own. *)
let create ?(seed = 1L) () =
  let rec t =
    {
      clock = 0.0;
      gid = 1;
      queue = Heap.create ();
      root = { gid = 0; alive = true };
      engine_rng = Rng.create seed;
      fiber_error = None;
      processed = 0;
      suspended = 0;
      parked = sentinel ();
      detect_deadlock = false;
      nondaemon_queued = 0;
      next_suspend_daemon = false;
      handler =
        {
          retc = (fun () -> ());
          exnc =
            (fun e ->
              let bt = Printexc.get_backtrace () in
              if t.fiber_error = None then
                t.fiber_error <-
                  Some
                    (Failure
                       (Printf.sprintf "fiber %s died: %s\n%s" !current_name
                          (Printexc.to_string e) bt)));
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Suspend register ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      park t k register)
              | _ -> None);
        };
    }
  in
  t

let rng t = t.engine_rng
let now t = t.clock
let root_group t = t.root

let new_group t =
  let g = { gid = t.gid; alive = true } in
  t.gid <- t.gid + 1;
  g

let kill_group t g = if g != t.root then g.alive <- false
let group_alive g = g.alive

let schedule t ~delay f = push t ~delay f

(* Every fiber runs under this frame, and [f ()] is deliberately not a
   tail call. The polls the compiler inserts carry no source location; a
   stack-sampling profiler (the e2e layer ledger) skips such frames, and
   at the base of a fiber stack it would find nothing else to credit. *)
let fiber_entry f =
  f ();
  ()

let spawn t ?group ?(name = "fiber") f =
  let g = match group with None -> t.root | Some g -> g in
  if g.alive then
    push t ~delay:0.0 (fun () ->
        if g.alive then begin
          current_group := g;
          current_name := name;
          Effect.Deep.match_with fiber_entry f t.handler
        end)

let suspend _t register = Effect.perform (Suspend register)

let self_group _t = !current_group

let sleep t dt =
  suspend t (fun resume -> push t ~delay:dt (fun () -> resume (Ok ())))

(* A daemon sleep parks an idle periodic fiber (the autonomic
   controllers, cache sweepers). Its wakeup event is daemon-flagged, so a drain-mode [run]
   stops without firing it, and the parked suspension is not reported by
   [leaked_fibers] — the fiber is idle by design, not lost. Once resumed
   (time-bounded runs), the fiber's work is ordinary non-daemon events. *)
let daemon_sleep t dt =
  t.next_suspend_daemon <- true;
  Effect.perform
    (Suspend (fun resume -> push t ~daemon:true ~delay:dt (fun () -> resume (Ok ()))))

let yield t = sleep t 0.0

let timeout t dt register =
  match
    Effect.perform
      (Suspend
         (fun resume ->
           (* The guard timer counts as pending work only while the
              operation is unsettled: once either side fires, the timer
              is demoted so a drain-mode [run] can reach quiescence
              without chasing every armed-but-moot guard to its expiry.
              A guard for an operation that never settles (request
              dropped by a link fault) stays counted and WILL fire — the
              suspended caller's only wakeup. Popping releases the same
              count through the same flag, so the demotion is exactly
              once whichever comes first. *)
           let settled = ref false in
           let demote = ref (fun () -> ()) in
           let fire r =
             if not !settled then begin
               settled := true;
               !demote ();
               resume r
             end
           in
           let ev = push_ev t ~delay:dt (fun () -> fire (Error Timed_out)) in
           (demote := fun () -> release_count t ev);
           register fire))
  with
  | v -> Ok v
  | exception Timed_out -> Error Timed_out

let set_detect_deadlock t flag = t.detect_deadlock <- flag

(* [run] calls [loop] rather than tail-calling it, so [run]'s frame, with
   its source location, stays under the loop's location-less polls (see
   [fiber_entry]); a profiler would otherwise credit the loop's time to
   [run]'s caller. *)
let run ?(until = infinity) ?(max_steps = max_int) t =
  let drain = until = infinity in
  (* True when the run ran out of due events, false when it used up
     [max_steps]. *)
  let rec loop steps =
    if steps >= max_steps then false
    else if (drain && t.nondaemon_queued = 0) || Heap.is_empty t.queue then
      (* Quiescence: only daemon wakeups (idle periodic fibers) remain.
         Leave them queued and parked — a later [run ~until] resumes them;
         a world with no daemons hits this exactly when the queue empties,
         so daemon-free runs are unchanged. *)
      true
    else
      let time = Heap.min_key t.queue in
      if time > until then true
      else begin
        let e = Heap.pop t.queue in
        release_count t e;
        if time > t.clock then t.clock <- time;
        t.processed <- t.processed + 1;
        e.thunk ();
        (match t.fiber_error with
        | Some err ->
            t.fiber_error <- None;
            raise err
        | None -> ());
        loop (steps + 1)
      end
  in
  if loop 0 && Heap.is_empty t.queue && t.detect_deadlock && t.suspended > 0
  then
    raise
      (Deadlock
         (Printf.sprintf "%d fiber(s) suspended with empty queue" t.suspended))

let processed_events t = t.processed

let leaked_fibers t =
  (* Prune suspensions whose group died: those fibers vanished with a
     crash, which is fail-silent semantics, not a leak. What remains — a
     suspension in a live group after the queue has drained — waits for a
     wakeup that can no longer come. Daemon-parked suspensions (idle
     periodic fibers sleeping via [daemon_sleep]) are excluded: their
     wakeup is queued, merely never fired by a drain-mode [run]. *)
  let ring = t.parked in
  let rec walk s acc =
    if s == ring then acc
    else
      let next = s.next in
      if not s.s_group.alive then begin
        unlink s;
        walk next acc
      end
      else walk next (if s.s_daemon then acc else s.s_name :: acc)
  in
  List.sort String.compare (walk ring.next [])
