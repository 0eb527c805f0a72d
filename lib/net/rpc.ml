type error = Unreachable | Crashed | Timed_out | No_service

let error_to_string = function
  | Unreachable -> "unreachable"
  | Crashed -> "crashed"
  | Timed_out -> "timed out"
  | No_service -> "no service"

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

type ('req, 'resp) endpoint = {
  ep_name : string;
  ep_op_key : string; (* "rpc.op." ^ ep_name, the per-operation counter *)
  inject_req : 'req -> Univ.t;
  project_req : Univ.t -> 'req option;
  inject_resp : 'resp -> Univ.t;
  project_resp : Univ.t -> 'resp option;
}

let endpoint name =
  let inject_req, project_req = Univ.embed () in
  let inject_resp, project_resp = Univ.embed () in
  {
    ep_name = name;
    ep_op_key = "rpc.op." ^ name;
    inject_req;
    project_req;
    inject_resp;
    project_resp;
  }

let endpoint_name ep = ep.ep_name

(* A raw handler receives the request payload and a [reply] callback. The
   reply callback transports the response back to the caller. *)
type raw_handler = Univ.t -> reply:(Univ.t -> unit) -> unit

type t = {
  net : Network.t;
  services : (Network.node_id * string, raw_handler) Hashtbl.t;
  default_timeout : float;
  mutable next_req : int;
  seen : (Network.node_id, (int, unit) Hashtbl.t) Hashtbl.t;
      (* per destination: ids of the requests it has run *)
}

let create ?(default_timeout = 60.0) net =
  {
    net;
    services = Hashtbl.create 64;
    default_timeout;
    next_req = 0;
    seen = Hashtbl.create 8;
  }

let network t = t.net

(* At-most-once request guard. The fault plane can deliver a request twice
   (dup injection); replaying a non-idempotent handler — staging a second
   Increment in gvd.bind_batch, double-applying a merged Decrement — would
   corrupt counters. Each request carries a fresh id; the destination keeps
   a volatile seen-table (cleared when it crashes, like any in-memory dedup
   cache) and drops replays, counted as [rpc.dup_suppressed]. Request ids
   are unique per runtime, so each destination's table is keyed by id
   alone, and a crash clears that one table. Activated only once a world
   installs message faults ([Network.faults_ever]), so fault-free worlds
   allocate and check nothing. *)
let seen_table t dst =
  match Hashtbl.find t.seen dst with
  | tbl -> tbl
  | exception Not_found ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.add t.seen dst tbl;
      Network.on_crash t.net dst (fun () -> Hashtbl.reset tbl);
      tbl

(* Wrap a request-delivery thunk with the duplicate guard. Returns the
   thunk unchanged in fault-free worlds. *)
let guard_duplicate t ~from ~dst thunk =
  if not (Network.faults_ever t.net) then thunk
  else begin
    let seen = seen_table t dst in
    let rid = t.next_req in
    t.next_req <- rid + 1;
    fun () ->
      if Hashtbl.mem seen rid then begin
        Sim.Metrics.incr (Network.metrics t.net) "rpc.dup_suppressed";
        Sim.Trace.recordf (Network.trace t.net)
          ~now:(Sim.Engine.now (Network.engine t.net))
          ~tag:"rpc" "dup suppressed %s->%s" from dst
      end
      else begin
        Hashtbl.add seen rid ();
        thunk ()
      end
  end

let serve t ~node ep h =
  let raw payload ~reply =
    match ep.project_req payload with
    | None ->
        failwith
          (Printf.sprintf "Rpc.serve: payload type mismatch on %s@%s"
             ep.ep_name node)
    | Some req -> reply (ep.inject_resp (h req))
  in
  Hashtbl.replace t.services (node, ep.ep_name) raw

let withdraw t ~node ep = Hashtbl.remove t.services (node, ep.ep_name)

let serving t ~node ep = Hashtbl.mem t.services (node, ep.ep_name)

let record t fmt =
  Sim.Trace.recordf (Network.trace t.net)
    ~now:(Sim.Engine.now (Network.engine t.net))
    ~tag:"rpc" fmt

(* Withdraw a call's crash watch once the call completed or timed out. *)
let unwatch_call watch_ref =
  match !watch_ref with Some w -> Network.unwatch w | None -> ()

let call_gen t ~from ~dst ?cancelled ?timeout ?deadline_at ep req =
  let eng = Network.engine t.net in
  let start = Sim.Engine.now eng in
  Sim.Metrics.incr (Network.metrics t.net) "rpc.calls";
  (* Per-operation round counter: lets tests and experiments assert how
     many network rounds a protocol step costs (e.g. a batched bind is
     exactly one "rpc.op.gvd.bind_batch" tick). *)
  Sim.Metrics.incr (Network.metrics t.net) ep.ep_op_key;
  if not (Network.reachable t.net from dst) then begin
    (* The callee is already known-dead (or unreachable): the failure
       detector answers after one detection latency. *)
    Sim.Engine.sleep eng (Network.sample_latency t.net);
    record t "%s: %s.%s -> unreachable" from dst ep.ep_name;
    Sim.Metrics.incr (Network.metrics t.net) "rpc.unreachable";
    Health.note_failure (Network.health t.net) ~dst ~now:(Sim.Engine.now eng);
    Error Unreachable
  end
  else begin
    (* Every reply path (the answer, a cancelled hedge copy, a shed call,
       a missing service) travels by [Network.send_inline]: [finish] only
       withdraws the crash watch and resumes the caller, so it runs inside
       the reply's delivery event and never needs a fiber of its own. *)
    let watch_ref = ref None in
    let register resume =
      let finish r =
        unwatch_call watch_ref;
        resume (Ok r)
      in
      watch_ref := Some (Network.watch_crash t.net dst (fun () -> finish (Error Crashed)));
      Network.send t.net ~src:from ~dst
        (guard_duplicate t ~from ~dst (fun () ->
             (* Deadline propagation: the caller's deadline rides in the
                request metadata. If the initiator has already given up by
                the time the request is unpacked, running the handler is
                pure waste — a shedding server answers [Timed_out] at once
                instead of holding locks for a doomed round. Gated on the
                gray-failure profile: at [Off] the deadline is carried
                but never acted on, so the off path is byte-identical. *)
             (* Cooperative hedge cancellation: if the race this copy
                belongs to has already settled, the delivery is dropped
                before the handler runs — indistinguishable from a lost
                message, which the protocols already tolerate. This is
                what keeps hedging safe around 2PC ordering: without it a
                slow losing prepare could arrive AFTER the backup's round
                committed and re-stage a ghost intent for a finished
                action. *)
             let dead =
               match cancelled with Some f -> f () | None -> false
             in
             let expired =
               match deadline_at with
               | Some d -> Network.hedging t.net && Sim.Engine.now eng > d
               | None -> false
             in
             if dead then begin
               Sim.Metrics.incr (Network.metrics t.net) "rpc.hedge_cancelled";
               record t "%s: dropped cancelled hedge copy %s.%s" dst from
                 ep.ep_name;
               Network.send_inline t.net ~src:dst ~dst:from (fun () ->
                   finish (Error Timed_out))
             end
             else if expired then begin
               Sim.Metrics.incr (Network.metrics t.net) "retry.shed_expired";
               record t "%s: shed expired call %s.%s" dst from ep.ep_name;
               Network.send_inline t.net ~src:dst ~dst:from (fun () ->
                   finish (Error Timed_out))
             end
             else
               match Hashtbl.find_opt t.services (dst, ep.ep_name) with
               | None ->
                   Network.send_inline t.net ~src:dst ~dst:from (fun () ->
                       finish (Error No_service))
               | Some raw ->
                   raw (ep.inject_req req) ~reply:(fun resp_payload ->
                       Network.send_inline t.net ~src:dst ~dst:from (fun () ->
                           match ep.project_resp resp_payload with
                           | Some resp -> finish (Ok resp)
                           | None ->
                               failwith
                                 (Printf.sprintf
                                    "Rpc.call: response type mismatch on %s"
                                    ep.ep_name)))))
    in
    let dt = match timeout with Some dt -> dt | None -> t.default_timeout in
    let outcome =
      match Sim.Engine.timeout eng dt register with
      | Ok r -> r
      | Error _ ->
          unwatch_call watch_ref;
          Error Timed_out
    in
    (* Latency-health feed: every completed round trip teaches the health
       plane how [dst] is doing. Pure arithmetic — no draws, no events —
       so it is always on. *)
    let now = Sim.Engine.now eng in
    (match outcome with
    | Ok _ ->
        Health.note_ok (Network.health t.net) ~dst ~now ~latency:(now -. start)
    | Error e ->
        (match e with
        | No_service -> ()
        | Unreachable | Crashed | Timed_out ->
            Health.note_failure (Network.health t.net) ~dst ~now);
        record t "%s: %s.%s -> %s" from dst ep.ep_name (error_to_string e);
        Sim.Metrics.incr (Network.metrics t.net)
          ("rpc." ^ String.map (function ' ' -> '_' | c -> c) (error_to_string e)));
    outcome
  end

let call t ~from ~dst ?timeout ?deadline_at ep req =
  call_gen t ~from ~dst ?timeout ?deadline_at ep req

(* Hedged call: give the primary a head start derived from fleet-healthy
   latency; if it has not answered by then, race a backup and take the
   first [Ok]. The backup targets [alt] when given (a sibling replica) or
   re-sends to the same destination (per-message brownout inflation makes
   even a same-node retry a fresh latency draw). A duplicate delivery can
   run the handler twice — each hedge carries a fresh request id, below the
   dedup guard — so only idempotent operations may be hedged; and once the
   race settles, copies still in flight are cancelled cooperatively at
   delivery (the [cancelled] probe above), so a slow loser can never run
   the handler after the winner's round already moved the protocol on. *)
type hedge = { hedge_floor : float }

let hedge ?(floor = 4.0) () = { hedge_floor = floor }

let call_hedged t ~from ~dst ?alt ?(keep_primary = false) ?alt_won ?timeout
    ?deadline_at ~hedge ep req =
  let eng = Network.engine t.net in
  let backup_dst = match alt with Some a -> a | None -> dst in
  let delay =
    Health.hedge_delay ~floor:hedge.hedge_floor (Network.health t.net)
  in
  let iv = Sim.Ivar.create () in
  let launched = ref 0 in
  let outstanding = ref 0 in
  let group = Sim.Engine.self_group eng in
  let settle ~backup r =
    match r with
    | Ok _ ->
        if Sim.Ivar.try_fill iv r then
          if backup && alt <> None then begin
            Sim.Metrics.incr (Network.metrics t.net) "rpc.sibling_wins";
            match alt_won with Some flag -> flag := true | None -> ()
          end
    | Error _ ->
        decr outstanding;
        (* Keep the last error only once no copy can still answer. *)
        if !outstanding = 0 && !launched = 2 then
          ignore (Sim.Ivar.try_fill iv r)
  in
  let cancelled () = Sim.Ivar.is_filled iv in
  (* [keep_primary] exempts the primary copy from cooperative
     cancellation: a phase-2 decision hedged to a sibling must STILL be
     delivered to (and applied by) the primary store — the sibling's
     quick answer only lets the gather stop waiting; it does not make the
     primary's copy of the decision redundant, because the sibling
     resolves its own intent, not the primary's. Dropping the primary's
     copy would strand its prepared intent until a crash-recovery
     decision query that a merely-slow (never crashed) store never
     issues. Prepare-phase hedges keep the default cancel-both
     behaviour: an unapplied prepare on the primary is harmless (the
     caller counts the leg failed and §4.2-excludes the store for this
     action). *)
  let primary_cancelled = if keep_primary then None else Some cancelled in
  incr launched;
  incr outstanding;
  Sim.Engine.spawn eng ~group ~name:("rpc.hedge." ^ ep.ep_name) (fun () ->
      settle ~backup:false
        (call_gen t ~from ~dst ?cancelled:primary_cancelled ?timeout
           ?deadline_at ep req));
  Sim.Engine.schedule eng ~delay (fun () ->
      incr launched;
      (* Before this point [settle] can only have filled the ivar with an
         [Ok] (errors wait for launched = 2), so a filled ivar means the
         primary won and the backup that never fires costs nothing. An
         unfilled ivar means the primary is still in flight — or already
         failed, in which case the backup doubles as a straight retry. *)
      if not (Sim.Ivar.is_filled iv) then begin
        incr outstanding;
        Sim.Metrics.incr (Network.metrics t.net) "rpc.hedges";
        Sim.Engine.spawn eng ~group
          ~name:("rpc.hedge.backup." ^ ep.ep_name)
          (fun () ->
            settle ~backup:true
              (call_gen t ~from ~dst:backup_dst ~cancelled ?timeout
                 ?deadline_at ep req))
      end);
  Sim.Ivar.read eng iv

let call_all t ~from ?timeout ?hedge ?deadline_at ep reqs =
  (match reqs with
  | [] | [ _ ] -> ()
  | _ ->
      Sim.Metrics.incr (Network.metrics t.net) "rpc.scatters";
      Sim.Metrics.incr (Network.metrics t.net) ~by:(List.length reqs)
        "rpc.scatter_calls");
  match hedge with
  | None ->
      Sim.Join.all (Network.engine t.net)
        (List.map
           (fun (dst, req) () ->
             (dst, call t ~from ~dst ?timeout ?deadline_at ep req))
           reqs)
  | Some h ->
      Sim.Join.all (Network.engine t.net)
        (List.map
           (fun (dst, req) () ->
             (dst, call_hedged t ~from ~dst ?timeout ?deadline_at ~hedge:h ep req))
           reqs)

let notify t ~from ~dst ep req =
  Sim.Metrics.incr (Network.metrics t.net) "rpc.notifies";
  if Network.reachable t.net from dst then
    Network.send t.net ~src:from ~dst
      (guard_duplicate t ~from ~dst (fun () ->
           match Hashtbl.find_opt t.services (dst, ep.ep_name) with
           | None -> ()
           | Some raw -> raw (ep.inject_req req) ~reply:(fun _ -> ())))
