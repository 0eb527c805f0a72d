type status = Running | Committed | Aborted

exception Abort of string

type decision_reply = D_commit | D_abort | D_active | D_unknown

type participant = {
  pa_name : string;
  pa_prepare : unit -> bool;
  pa_commit : unit -> unit;
  pa_abort : unit -> unit;
}

type runtime = {
  sh : Store_host.t;
  rh : Resource_host.t;
  mutable next_serial : int;
  (* Volatile per-coordinator-node set of running top-level actions, used
     to answer D_active to recovering participants. Cleared by node crash
     hooks: a crashed coordinator forgets its running actions, which is
     exactly the presumed-abort semantics. *)
  active : (string, Net.Network.node_id) Hashtbl.t; (* action -> coordinator *)
  decision_nodes : (Net.Network.node_id, unit) Hashtbl.t;
  ep_decision : (string, decision_reply) Net.Rpc.endpoint;
  rt_retry : Net.Retry.t;
}

let make_runtime sh rh =
  {
    sh;
    rh;
    next_serial = 0;
    active = Hashtbl.create 32;
    decision_nodes = Hashtbl.create 8;
    ep_decision = Net.Rpc.endpoint "action.decision";
    rt_retry = Net.Retry.create (Net.Rpc.network (Store_host.rpc sh));
  }

let store_host rt = rt.sh
let resource_host rt = rt.rh
let rpc rt = Store_host.rpc rt.sh
let network rt = Net.Rpc.network (rpc rt)
let engine rt = Net.Network.engine (network rt)
let retry rt = rt.rt_retry

type t = {
  rt : runtime;
  aid : Action_id.t;
  coord : Net.Network.node_id;
  parent : t option;
  mutable kids : int;
  mutable st : status;
  mutable enlisted : (Net.Network.node_id * string * bool ref) list;
      (* node, resource, required: must a phase-1 failure abort? *)
  mutable participants : participant list; (* newest first *)
  mutable pre_hooks : (unit -> (unit, string) result) list; (* newest first *)
  mutable undo_hooks : (unit -> unit) list; (* newest first *)
  mutable post_hooks : (unit -> unit) list; (* newest first *)
  mutable post_abort_hooks : (unit -> unit) list; (* newest first *)
  mutable deadline : float option; (* absolute virtual time *)
}

let id t = t.aid
let node t = t.coord
let status t = t.st
let runtime_of t = t.rt
let owner t = Action_id.to_string t.aid

let metrics t = Net.Network.metrics (network t.rt)

let tracef t fmt =
  Sim.Trace.recordf
    (Net.Network.trace (network t.rt))
    ~now:(Sim.Engine.now (engine t.rt))
    ~tag:"action" fmt

let tracing t = Sim.Trace.enabled (Net.Network.trace (network t.rt))

(* Install the coordinator decision service on a node the first time it
   coordinates. Consults the volatile active set, then the stable decision
   record; absence of both is presumed abort. *)
let ensure_decision_service rt coord =
  if not (Hashtbl.mem rt.decision_nodes coord) then begin
    Hashtbl.add rt.decision_nodes coord ();
    Net.Rpc.serve (rpc rt) ~node:coord rt.ep_decision (fun action ->
        match Hashtbl.find_opt rt.active action with
        | Some c when String.equal c coord -> D_active
        | Some _ | None -> (
            if Store_host.hosted rt.sh coord then
              match
                Store.Intent_log.decision_of (Store_host.log rt.sh coord) ~action
              with
              | Some Store.Intent_log.Commit -> D_commit
              | Some Store.Intent_log.Abort -> D_abort
              | None -> D_unknown
            else D_unknown));
    Net.Network.on_crash (network rt) coord (fun () ->
        (* The crashed coordinator forgets its running actions. *)
        let stale =
          Hashtbl.fold
            (fun action c acc -> if String.equal c coord then action :: acc else acc)
            rt.active []
        in
        List.iter (Hashtbl.remove rt.active) stale)
  end

let query_decision rt ~from ~coordinator ~action =
  Net.Rpc.call (rpc rt) ~from ~dst:coordinator rt.ep_decision action

let begin_top ?deadline rt ~node =
  ensure_decision_service rt node;
  let serial = rt.next_serial in
  rt.next_serial <- serial + 1;
  let aid = Action_id.top ~origin:node ~serial in
  Hashtbl.replace rt.active (Action_id.to_string aid) node;
  Sim.Metrics.incr (Net.Network.metrics (network rt)) "action.begin_top";
  (* [deadline] is a relative budget; store it absolute so nested actions
     started later inherit the remaining (not a fresh) budget. *)
  let deadline =
    Option.map (fun d -> Sim.Engine.now (engine rt) +. d) deadline
  in
  {
    rt;
    aid;
    coord = node;
    parent = None;
    kids = 0;
    st = Running;
    enlisted = [];
    participants = [];
    pre_hooks = [];
    undo_hooks = [];
    post_hooks = [];
    post_abort_hooks = [];
    deadline;
  }

let begin_nested parent =
  if parent.st <> Running then invalid_arg "begin_nested: parent not running";
  parent.kids <- parent.kids + 1;
  let aid = Action_id.child parent.aid ~serial:parent.kids in
  Sim.Metrics.incr (metrics parent) "action.begin_nested";
  {
    rt = parent.rt;
    aid;
    coord = parent.coord;
    parent = Some parent;
    kids = 0;
    st = Running;
    enlisted = [];
    participants = [];
    pre_hooks = [];
    undo_hooks = [];
    post_hooks = [];
    post_abort_hooks = [];
    deadline = parent.deadline;
  }

let begin_nested_top t =
  let a = begin_top t.rt ~node:t.coord in
  (* A nested-top serves the same user operation: it inherits the
     enclosing action's remaining deadline budget. *)
  a.deadline <- t.deadline;
  a

let deadline t = t.deadline

let enlist t ?(required = true) ~node ~resource () =
  if t.st <> Running then invalid_arg "enlist: action not running";
  match
    List.find_opt (fun (n, r, _) -> String.equal n node && String.equal r resource)
      t.enlisted
  with
  | Some (_, _, req) -> if required then req := true
  | None -> t.enlisted <- (node, resource, ref required) :: t.enlisted

let add_participant t ~name ~prepare ~commit ~abort =
  if t.st <> Running then invalid_arg "add_participant: action not running";
  t.participants <-
    { pa_name = name; pa_prepare = prepare; pa_commit = commit; pa_abort = abort }
    :: t.participants

let before_commit t f = t.pre_hooks <- f :: t.pre_hooks
let on_abort t f = t.undo_hooks <- f :: t.undo_hooks
let after_commit t f = t.post_hooks <- f :: t.post_hooks
let after_abort t f = t.post_abort_hooks <- f :: t.post_abort_hooks

let deactivate t =
  if Action_id.is_top t.aid then Hashtbl.remove t.rt.active (owner t)

(* Phase-2 notification of an enlisted resource. Releasing a resource
   must not be fire-and-forget: a release message lost to the network
   leaves the resource's locks and staged state held by a completed
   action forever (nothing re-sends it — the decision is already durable
   on this side only). But it must not block the action's completion
   either: the decision is made, and a coordinator wedged behind a
   partition would stall its client for the partition's whole lifetime.
   So: one inline attempt (the fault-free fast path, unchanged), and on
   failure with the node still up, a reaper fiber keeps retrying in the
   background until the release lands or the node dies — once it crashes
   its volatile locks and stage die with it, so stopping is safe. No
   [~dst]: an unreachable-but-up node is a link problem, not a
   node-health signal, and must not open the destination's breaker. *)
let release_resource t ~rnode ~op call =
  let net = network t.rt in
  let up () = Net.Network.is_up net rnode in
  match call () with
  | Ok () -> ()
  | Error _ when not (up ()) -> () (* volatile state died with the node *)
  | Error _ ->
      let action = owner t in
      Sim.Metrics.incr (metrics t) "action.release_deferred";
      Net.Network.spawn_on net t.coord
        ~name:(Printf.sprintf "%s.release:%s@%s" t.coord action rnode)
        (fun () ->
          match
            Net.Retry.run t.rt.rt_retry ~op
              (Net.Retry.policy ~attempts:60 ~base:2.0 ~factor:1.5
                 ~max_delay:8.0 ())
              (fun () ->
                if not (up ()) then Ok ()
                else
                  match call () with
                  | Ok () -> Ok ()
                  | Error _ when not (up ()) -> Ok ()
                  | Error e -> Error (Net.Rpc.error_to_string e))
          with
          | Ok () -> ()
          | Error e ->
              tracef t "%s phase-2 loss at %s: %s" action rnode e;
              Sim.Metrics.incr (metrics t) "action.phase2_losses")

(* Abort: undo newest-first (strictly serial — each undo may depend on
   the effects of later-installed ones), then tell every participant and
   every resource, each stage as one parallel fan-out. *)
let abort t ~reason =
  if t.st = Running then begin
    t.st <- Aborted;
    if tracing t then tracef t "%s abort: %s" (owner t) reason;
    Sim.Metrics.incr (metrics t) "action.aborts";
    List.iter (fun undo -> undo ()) t.undo_hooks;
    let eng = engine t.rt in
    ignore
      (Sim.Join.all eng
         (List.map (fun p () -> p.pa_abort ()) (List.rev t.participants)));
    ignore
      (Sim.Join.all eng
         (List.map
            (fun (rnode, resource, _) () ->
              release_resource t ~rnode ~op:"action.release_abort" (fun () ->
                  Resource_host.abort t.rt.rh ~from:t.coord ~node:rnode
                    ~resource ~action:(owner t)))
            (List.rev t.enlisted)));
    deactivate t;
    List.iter (fun post -> post ()) (List.rev t.post_abort_hooks)
  end

let commit_nested t parent =
  (* Everything folds into the parent; nothing becomes durable. *)
  let child_owner = owner t in
  let parent_owner = owner parent in
  let enlisted = List.rev t.enlisted in
  (* Scatter the transfer RPCs (independent resources), then merge into
     the parent's enlistment serially — the merge mutates shared state. *)
  let transfers =
    Sim.Join.all (engine t.rt)
      (List.map
         (fun (rnode, resource, _) () ->
           Resource_host.transfer t.rt.rh ~from:t.coord ~node:rnode ~resource
             ~action:child_owner ~parent:parent_owner)
         enlisted)
  in
  List.iter2
    (fun (rnode, resource, required) transferred ->
      (match transferred with
      | Ok () -> ()
      | Error e ->
          (* The resource's node crashed: its volatile locks are gone;
             nothing to transfer. *)
          tracef t "%s transfer to %s lost at %s: %s" child_owner parent_owner
            rnode (Net.Rpc.error_to_string e));
      match
        List.find_opt
          (fun (n, r, _) -> String.equal n rnode && String.equal r resource)
          parent.enlisted
      with
      | Some (_, _, req) -> if !required then req := true
      | None -> parent.enlisted <- (rnode, resource, required) :: parent.enlisted)
    enlisted transfers;
  parent.participants <- t.participants @ parent.participants;
  parent.pre_hooks <- t.pre_hooks @ parent.pre_hooks;
  parent.undo_hooks <- t.undo_hooks @ parent.undo_hooks;
  parent.post_hooks <- t.post_hooks @ parent.post_hooks;
  parent.post_abort_hooks <- t.post_abort_hooks @ parent.post_abort_hooks;
  t.st <- Committed;
  Sim.Metrics.incr (metrics t) "action.nested_commits";
  Ok ()

let commit_top t =
  let action = owner t in
  (* Before-commit hooks: the paper's commit-time state copy and StA
     exclusion run here and may still abort the action. *)
  let rec run_pre = function
    | [] -> Ok ()
    | hook :: rest -> (
        match hook () with
        | Ok () -> run_pre rest
        | Error reason -> Error reason)
  in
  match run_pre (List.rev t.pre_hooks) with
  | Error reason ->
      abort t ~reason;
      Error reason
  | Ok () -> (
      (* Phase 1, scattered: every participant prepares at once; if all
         vote yes, every resource prepares at once. The first no-vote (in
         registration order, for deterministic abort reasons) decides; a
         loser that prepared anyway is cleaned up by the abort fan-out,
         which notifies all participants and resources regardless. *)
      let eng = engine t.rt in
      let participants = List.rev t.participants in
      let resources = List.rev t.enlisted in
      let participant_fail =
        Sim.Join.all eng
          (List.map
             (fun p () ->
               if p.pa_prepare () then None
               else
                 Some (Printf.sprintf "participant %s voted no" p.pa_name))
             participants)
        |> List.find_map Fun.id
      in
      let vote_fail =
        match participant_fail with
        | Some _ -> participant_fail
        | None ->
            Sim.Join.all eng
              (List.map
                 (fun (rnode, resource, required) () ->
                   match
                     Resource_host.prepare t.rt.rh ~from:t.coord ~node:rnode
                       ~resource ~action
                   with
                   | Ok true -> None
                   | Ok false ->
                       Some
                         (Printf.sprintf "resource %s@%s voted no" resource
                            rnode)
                   | Error e ->
                       (* A crashed replica of a group is masked (its
                          volatile state is gone anyway); a required
                          resource aborts. *)
                       if !required then
                         Some
                           (Printf.sprintf "resource %s@%s unreachable: %s"
                              resource rnode (Net.Rpc.error_to_string e))
                       else begin
                         tracef t "%s: tolerating lost replica %s@%s (%s)"
                           action resource rnode (Net.Rpc.error_to_string e);
                         None
                       end)
                 resources)
            |> List.find_map Fun.id
      in
      match vote_fail with
      | Some reason ->
          abort t ~reason;
          Error reason
      | None ->
          (* Decision point: durably record Commit on the coordinator
             (presumed abort records only commits). *)
          Store_host.record_decision t.rt.sh ~node:t.coord ~action
            Store.Intent_log.Commit;
          deactivate t;
          t.st <- Committed;
          if tracing t then tracef t "%s commit" action;
          Sim.Metrics.incr (metrics t) "action.commits";
          (* Phase 2, scattered: best effort; a crashed participant
             resolves through recovery against our decision record. *)
          ignore
            (Sim.Join.all eng
               (List.map (fun p () -> p.pa_commit ()) participants));
          ignore
            (Sim.Join.all eng
               (List.map
                  (fun (rnode, resource, _) () ->
                    release_resource t ~rnode ~op:"action.release_commit"
                      (fun () ->
                        Resource_host.commit t.rt.rh ~from:t.coord ~node:rnode
                          ~resource ~action))
                  resources));
          List.iter (fun post -> post ()) (List.rev t.post_hooks);
          Ok ())

let commit t =
  if t.st <> Running then Error "action not running"
  else
    match t.parent with
    | Some parent when parent.st = Running -> commit_nested t parent
    | Some _ -> Error "parent no longer running"
    | None -> commit_top t

let run_body t body =
  match body t with
  | v -> (
      match commit t with Ok () -> Ok v | Error reason -> Error reason)
  | exception Abort reason ->
      abort t ~reason;
      Error reason
  | exception e ->
      abort t ~reason:(Printexc.to_string e);
      raise e

let atomically ?deadline rt ~node body =
  run_body (begin_top ?deadline rt ~node) body
let atomically_nested parent body = run_body (begin_nested parent) body
let atomically_nested_top parent body = run_body (begin_nested_top parent) body
