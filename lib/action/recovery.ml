let error_str = Net.Rpc.error_to_string

(* Cooperative termination: with the coordinator unreachable through the
   whole retry budget, look for commit evidence among peer stores before
   presuming abort. While this record reserves the object here, no later
   action can have committed anywhere — its prepare would be refused by
   this very reservation — so a peer state stamped by [action] proves the
   decision was commit, and its absence on every reachable peer makes
   presumed abort safe (a commit nobody holds was never acknowledged). *)
let resolve_by_peers rt ~node ~action =
  let sh = Atomic.store_host rt in
  let net = Atomic.network rt in
  let log = Store_host.log sh node in
  match Store.Intent_log.prepared log ~action with
  | None -> ()
  | Some { Store.Intent_log.writes; _ } ->
      let stamped_by_action peer uid =
        match Store_host.read sh ~from:node ~store:peer uid with
        | Ok (Some s) ->
            String.equal
              s.Store.Object_state.version.Store.Version.committed_by action
        | Ok None | Error _ -> false
      in
      let committed =
        List.exists
          (fun (uid, _) ->
            List.exists
              (fun peer ->
                (not (String.equal peer node))
                && Net.Network.is_up net peer
                && stamped_by_action peer uid)
              (Store_host.nodes sh))
          writes
      in
      if committed then
        ignore (Store_host.commit sh ~from:node ~store:node ~action)
      else Store_host.resolve sh ~node ~action

let resolve_in_doubt rt ~node ?(retry_delay = 2.0) () =
  let sh = Atomic.store_host rt in
  let eng = Atomic.engine rt in
  let log = Store_host.log sh node in
  let net = Atomic.network rt in
  let tracef fmt =
    Sim.Trace.recordf (Net.Network.trace net) ~now:(Sim.Engine.now eng)
      ~tag:"recovery" fmt
  in
  let apply action =
    match Store.Intent_log.prepared log ~action with
    | None -> ()
    | Some { Store.Intent_log.coordinator; _ } -> (
        let outcome =
          Net.Retry.run (Atomic.retry rt) ~dst:coordinator
            ~op:"recovery.decision"
            (Net.Retry.policy ~attempts:60 ~base:retry_delay ~factor:1.5
               ~max_delay:8.0 ())
            (fun () ->
              match Atomic.query_decision rt ~from:node ~coordinator ~action with
              | Ok Atomic.D_commit -> Ok `Commit
              | Ok (Atomic.D_abort | Atomic.D_unknown) -> Ok `Abort
              | Ok Atomic.D_active -> Error "coordinator still deciding"
              | Error e -> Error (error_str e))
        in
        match outcome with
        | Ok `Commit -> (
            tracef "%s: in-doubt %s -> commit" node action;
            (* Apply through the local commit path (idempotent). *)
            match Store_host.commit sh ~from:node ~store:node ~action with
            | Ok () -> ()
            | Error _ ->
                (* Local call can only fail if we crashed again;
                   the next recovery will retry. *)
                ())
        | Ok `Abort ->
            tracef "%s: in-doubt %s -> presumed abort" node action;
            Store_host.resolve sh ~node ~action
        | Error _ ->
            (* Retry budget exhausted with the coordinator unreachable or
               stuck deciding: settle from peer commit evidence, else
               presumed abort (§9.5) rather than holding the prepared
               write forever. *)
            tracef "%s: in-doubt %s -> peer evidence (retry budget spent)"
              node action;
            resolve_by_peers rt ~node ~action)
  in
  let rec drain () =
    match Store.Intent_log.in_doubt log with
    | [] -> ()
    | actions ->
        List.iter apply actions;
        drain ()
  in
  drain ()

let attach rt ~node =
  Net.Network.on_recover (Atomic.network rt) node (fun () ->
      resolve_in_doubt rt ~node ())

(* Break write reservations whose coordinator is partitioned away.
   [guard_prepares] resolves in-doubt records when the coordinator
   {e crashes}; a partition severs the coordinator's abort fan-out without
   killing it, so its reservation would block every future writer of the
   object until the cut heals — and nothing retries the withdrawal after
   healing. When a prepare is refused by such a reservation, probe the
   blocker's coordinator: a commit decision is applied locally, anything
   else is presumed abort; if the coordinator stays unreachable through
   the probe budget, presume abort rather than reserve the object
   forever (backward validation keeps a wrongly-broken reservation safe —
   a stale copy is caught at the next prepare). Reachable coordinators
   are never probed: live contention resolves through the normal
   fan-out, so healthy runs see no extra traffic. *)
let break_stale_reservations rt ?(tries = 5) ?(retry_delay = 2.0) () =
  let sh = Atomic.store_host rt in
  let net = Atomic.network rt in
  let eng = Atomic.engine rt in
  let probing = Hashtbl.create 16 in
  Store_host.set_reservation_hook sh (fun ~node ~blockers ->
      List.iter
        (fun (action, coordinator) ->
          let key = (node, action) in
          if
            (not (Hashtbl.mem probing key))
            && not (Net.Network.reachable net node coordinator)
          then begin
            Hashtbl.add probing key ();
            Net.Network.spawn_on net node
              ~name:(Printf.sprintf "%s.break-reservation:%s" node action)
              (fun () ->
                let log = Store_host.log sh node in
                let tracef fmt =
                  Sim.Trace.recordf
                    (Net.Network.trace net)
                    ~now:(Sim.Engine.now eng) ~tag:"recovery" fmt
                in
                let outcome =
                  Net.Retry.run (Atomic.retry rt) ~dst:coordinator
                    ~op:"recovery.break_reservation"
                    (Net.Retry.policy ~attempts:(tries + 1) ~base:retry_delay
                       ~factor:1.5 ~max_delay:8.0 ())
                    (fun () ->
                      match Store.Intent_log.prepared log ~action with
                      | None -> Ok `Withdrawn
                      | Some _ -> (
                          match
                            Atomic.query_decision rt ~from:node ~coordinator
                              ~action
                          with
                          | Ok Atomic.D_commit -> Ok `Commit
                          | Ok (Atomic.D_abort | Atomic.D_unknown) -> Ok `Abort
                          | Ok Atomic.D_active -> Ok `Live
                          | Error e -> Error (error_str e)))
                in
                (match outcome with
                | Ok `Withdrawn ->
                    (* Withdrawn through the normal path meanwhile. *)
                    ()
                | Ok `Live ->
                    (* The cut healed and the action is still live: its own
                       completion will withdraw. *)
                    ()
                | Ok `Commit ->
                    tracef "%s: blocked reservation %s -> commit" node action;
                    ignore (Store_host.commit sh ~from:node ~store:node ~action)
                | Ok `Abort ->
                    tracef "%s: blocked reservation %s -> presumed abort" node
                      action;
                    Store_host.resolve sh ~node ~action
                | Error _ ->
                    tracef
                      "%s: reservation %s coordinator unreachable -> peer \
                       evidence, else presumed abort"
                      node action;
                    resolve_by_peers rt ~node ~action);
                Hashtbl.remove probing key)
          end)
        blockers)

(* In-doubt resolution for one prepare record of [node], run when the
   action's coordinator crashes before the record resolved. *)
let settle_in_doubt rt ~node ~action ~coordinator () =
  let sh = Atomic.store_host rt in
  let log = Store_host.log sh node in
  let outcome =
    Net.Retry.run (Atomic.retry rt) ~dst:coordinator ~op:"recovery.indoubt"
      (Net.Retry.policy ~attempts:65 ~base:5.0 ~factor:1.2 ~max_delay:8.0 ())
      (fun () ->
        match Store.Intent_log.prepared log ~action with
        | None -> Ok `Resolved
        | Some _ -> (
            match Atomic.query_decision rt ~from:node ~coordinator ~action with
            | Ok Atomic.D_commit -> Ok `Commit
            | Ok (Atomic.D_abort | Atomic.D_unknown) -> Ok `Abort
            | Ok Atomic.D_active -> Error "coordinator still deciding"
            | Error e -> Error (error_str e)))
  in
  match outcome with
  | Ok `Resolved -> () (* resolved through the normal path *)
  | Ok `Commit -> ignore (Store_host.commit sh ~from:node ~store:node ~action)
  | Ok `Abort -> Store_host.resolve sh ~node ~action
  | Error _ ->
      (* The coordinator never came back: settle from peer commit
         evidence, else presume abort rather than reserve the object
         forever. *)
      resolve_by_peers rt ~node ~action

(* One crash watch per prepare record: an action's later prepares at the
   same store merge into its record and share the watch. The watch is
   withdrawn when the record resolves, and every watch of a store goes
   when the store crashes: its recovery ([attach]) settles its in-doubt
   records itself. *)
let guard_prepares rt =
  let sh = Atomic.store_host rt in
  let net = Atomic.network rt in
  let guards = Hashtbl.create 8 in
  let table node =
    match Hashtbl.find guards node with
    | tbl -> tbl
    | exception Not_found ->
        let tbl = Hashtbl.create 16 in
        Hashtbl.add guards node tbl;
        Net.Network.on_crash net node (fun () ->
            Hashtbl.iter (fun _ w -> Net.Network.unwatch w) tbl;
            Hashtbl.reset tbl);
        tbl
  in
  Store_host.set_prepare_hook sh (fun ~node ~action ~coordinator ->
      let tbl = table node in
      if not (Hashtbl.mem tbl action) then
        Hashtbl.add tbl action
          (Net.Network.watch_crash net coordinator (fun () ->
               Net.Network.spawn_on net node
                 ~name:(Printf.sprintf "%s.indoubt:%s" node action)
                 (settle_in_doubt rt ~node ~action ~coordinator))));
  Store_host.set_resolve_hook sh (fun ~node ~action ->
      match Hashtbl.find guards node with
      | exception Not_found -> ()
      | tbl -> (
          match Hashtbl.find tbl action with
          | exception Not_found -> ()
          | w ->
              Hashtbl.remove tbl action;
              Net.Network.unwatch w))
