(* Tests for the group-commit plane (Replica.Groupcommit): batch window
   close and quiescence-pull, singleton-batch equivalence with the solo
   scatter, per-action vote peel-out, acked-floor piggybacking scoped to
   the batch, the tier-1 round-reduction pin, and a QCheck
   property that batched and solo execution reach byte-equal store
   states under random interleavings. *)

open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let stores = [ "t1"; "t2" ]

let topo clients =
  {
    Service.gvd_node = "ns";
    gvd_nodes = [];
    server_nodes = [ "alpha" ];
    store_nodes = stores;
    client_nodes = clients;
  }

let mk_world ?(seed = 13L) ?(window = 0.0) clients =
  Service.create ~seed ~commit_batch_window:window (topo clients)

let new_counter w name =
  Service.create_object w ~name ~impl:"counter" ~sv:[ "alpha" ] ~st:stores ()

let commit_add w ~client ~uid =
  Service.with_bound w ~client ~scheme:Scheme.Independent
    ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
      ignore (Service.invoke w group ~act "add 1"))

let payload w store uid =
  let os = Action.Store_host.objects (Service.store_host w) store in
  Option.map
    (fun s -> s.Store.Object_state.payload)
    (Store.Object_store.read os uid)

let counter m name = Sim.Metrics.counter m name

(* ------------------------------------------------------------------ *)
(* Quiescence-pull: a lone commit under an absurdly long window must not
   wait it out — once no other commit is approaching, the batch closes
   immediately and the commit lands at solo speed. *)

let test_quiescence_pull () =
  let w = mk_world ~window:1000.0 [ "c1" ] in
  let uid = new_counter w "obj" in
  Service.run ~until:1.0 w;
  let r = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () -> r := commit_add w ~client:"c1" ~uid);
  Service.run w;
  check_bool "committed" true (!r = Ok ());
  Alcotest.(check (option string)) "t1" (Some "1") (payload w "t1" uid);
  Alcotest.(check (option string)) "t2" (Some "1") (payload w "t2" uid);
  check_bool "closed early, not at window expiry"
    true
    (Sim.Engine.now (Service.engine w) < 100.0);
  let m = Service.metrics w in
  check_bool "quiescence pulled the close" true
    (counter m "groupcommit.pulled_closes" >= 1);
  check_int "no window expiries" 0 (counter m "groupcommit.window_closes")

(* Window expiry: with a commit token permanently outstanding (entered,
   never left), the phase-1 batch cannot quiesce and must hold the full
   window before scattering — and the commit still lands. *)

let test_window_expiry () =
  let w = mk_world ~window:50.0 [ "c1" ] in
  let uid = new_counter w "obj" in
  Service.run ~until:1.0 w;
  let gc = Replica.Server.groupcommit (Service.server_runtime w) in
  (* A commit that is forever "approaching": open batches hold for it. *)
  ignore (Replica.Groupcommit.enter gc);
  let r = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () -> r := commit_add w ~client:"c1" ~uid);
  Service.run w;
  check_bool "committed" true (!r = Ok ());
  Alcotest.(check (option string)) "t1" (Some "1") (payload w "t1" uid);
  check_bool "waited out the window" true
    (Sim.Engine.now (Service.engine w) >= 50.0);
  check_bool "window expired at least once" true
    (counter (Service.metrics w) "groupcommit.window_closes" >= 1)

(* ------------------------------------------------------------------ *)
(* A singleton batch is the solo scatter: same store endpoints, same
   round counts, same final state, same virtual time. The batched
   endpoints must never fire for a batch of one. *)

let test_singleton_matches_solo () =
  let run window =
    let w = mk_world ~seed:17L ~window [ "c1" ] in
    let uid = new_counter w "obj" in
    Service.run ~until:1.0 w;
    Service.spawn_client w "c1" (fun () ->
        for _ = 1 to 3 do
          match commit_add w ~client:"c1" ~uid with
          | Ok () -> ()
          | Error e -> Alcotest.failf "commit failed: %s" e
        done);
    Service.run w;
    (w, uid)
  in
  let w0, uid0 = run 0.0 in
  let w1, uid1 = run 1000.0 in
  let m0 = Service.metrics w0 and m1 = Service.metrics w1 in
  Alcotest.(check (option string))
    "payloads agree" (payload w0 "t1" uid0) (payload w1 "t1" uid1);
  Alcotest.(check (option string)) "counted to 3" (Some "3")
    (payload w1 "t2" uid1);
  check_int "same solo prepare rounds"
    (counter m0 "rpc.op.store.prepare")
    (counter m1 "rpc.op.store.prepare");
  check_int "same solo commit rounds"
    (counter m0 "rpc.op.store.commit")
    (counter m1 "rpc.op.store.commit");
  check_int "no batched prepares" 0 (counter m1 "rpc.op.store.prepare_batch");
  check_int "no batched commits" 0 (counter m1 "rpc.op.store.commit_batch");
  Alcotest.(check (float 1e-9))
    "same virtual time"
    (Sim.Engine.now (Service.engine w0))
    (Sim.Engine.now (Service.engine w1))

(* ------------------------------------------------------------------ *)
(* Two commits synchronised into one batch. [sabotage] optionally bumps
   the second object's version at store t1 behind the bound instance's
   back, so that member votes Vote_stale while its batchmate is all-yes. *)

let paired_world ?(seed = 21L) ?(bystander = false) ~sabotage () =
  let w = mk_world ~seed ~window:5.0 [ "c1"; "c2" ] in
  let uid1 = new_counter w "obj-1" in
  let uid2 = new_counter w "obj-2" in
  if bystander then ignore (new_counter w "obj-3");
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  if sabotage then
    Sim.Engine.schedule eng ~delay:99.0 (fun () ->
        let os = Action.Store_host.objects (Service.store_host w) "t1" in
        match Store.Object_store.read os uid2 with
        | None -> Alcotest.fail "obj-2 missing at t1"
        | Some st ->
            Action.Store_host.seed (Service.store_host w) "t1" uid2
              (Store.Object_state.make ~payload:st.Store.Object_state.payload
                 ~version:
                   (Store.Version.next st.Store.Object_state.version
                      ~committed_by:"saboteur")));
  let results = Hashtbl.create 2 in
  List.iter
    (fun (client, uid) ->
      Service.spawn_client w client (fun () ->
          let r =
            Service.with_bound w ~client ~scheme:Scheme.Independent
              ~policy:Replica.Policy.Single_copy_passive ~uid
              (fun act group ->
                ignore (Service.invoke w group ~act "add 1");
                (* Sync point: both bodies exit — and so both commits
                   approach their prepare — at the same instant. *)
                Sim.Engine.sleep eng
                  (Float.max 0.0 (150.0 -. Sim.Engine.now eng)))
          in
          Hashtbl.replace results client r))
    [ ("c1", uid1); ("c2", uid2) ];
  Service.run w;
  (w, uid1, uid2, results)

let test_peel_out () =
  let w, uid1, uid2, results = paired_world ~sabotage:true () in
  let m = Service.metrics w in
  check_bool "batchmate committed" true (Hashtbl.find results "c1" = Ok ());
  check_bool "stale member aborted honestly" true
    (match Hashtbl.find results "c2" with Error _ -> true | Ok () -> false);
  check_int "one two-member batch formed" 1 (counter m "groupcommit.batches");
  check_int "exactly one peel-out" 1 (counter m "groupcommit.peels");
  Alcotest.(check (option string)) "obj-1 landed" (Some "1") (payload w "t1" uid1);
  Alcotest.(check (option string)) "obj-1 landed" (Some "1") (payload w "t2" uid1);
  (* The peeled member's write never applied anywhere. *)
  Alcotest.(check (option string)) "obj-2 untouched" (Some "0")
    (payload w "t1" uid2);
  Alcotest.(check (option string)) "obj-2 untouched" (Some "0")
    (payload w "t2" uid2)

(* Floors piggyback on the batched phase-2 acks: after a two-member
   batch commits, every (store, object) floor is known to the oplog. *)

let test_floor_piggyback () =
  let w, uid1, uid2, results = paired_world ~sabotage:false () in
  let m = Service.metrics w in
  check_bool "both committed" true
    (Hashtbl.find results "c1" = Ok () && Hashtbl.find results "c2" = Ok ());
  check_int "one batched phase 2" 1 (counter m "groupcommit.p2_batches");
  check_bool "floors folded from the acks" true
    (counter m "groupcommit.floors_gossiped" >= 4);
  let olog = Replica.Server.oplog (Service.server_runtime w) in
  let sh = Service.store_host w in
  List.iter
    (fun store ->
      let os = Action.Store_host.objects sh store in
      List.iter
        (fun uid ->
          let v = Option.get (Store.Object_store.version_of os uid) in
          Alcotest.(check (option int))
            (Printf.sprintf "floor %s" store)
            (Some v.Store.Version.counter)
            (Replica.Oplog.store_floor olog ~store ~uid))
        [ uid1; uid2 ])
    stores

(* The batched ack is scoped to its batch: it carries the floors of the
   objects the batch wrote, never a listing of the whole store. An
   untouched third object on the same stores gets no floor from it. *)

let test_ack_scoped_to_batch () =
  let w, uid1, uid2, results = paired_world ~bystander:true ~sabotage:false () in
  let m = Service.metrics w in
  check_bool "both committed" true
    (Hashtbl.find results "c1" = Ok () && Hashtbl.find results "c2" = Ok ());
  check_int "one batched phase 2" 1 (counter m "groupcommit.p2_batches");
  check_int "one floor per written (store, object)" 4
    (counter m "groupcommit.floors_gossiped");
  let olog = Replica.Server.oplog (Service.server_runtime w) in
  let sh = Service.store_host w in
  List.iter
    (fun store ->
      let os = Action.Store_host.objects sh store in
      List.iter
        (fun uid ->
          check_bool
            (Printf.sprintf "batch object floor at %s" store)
            true
            (Replica.Oplog.store_floor olog ~store ~uid <> None))
        [ uid1; uid2 ];
      let bystander =
        List.find
          (fun uid -> not (List.mem uid [ uid1; uid2 ]))
          (Store.Object_store.uids os)
      in
      Alcotest.(check (option int))
        (Printf.sprintf "bystander has no floor at %s" store)
        None
        (Replica.Oplog.store_floor olog ~store ~uid:bystander))
    stores

(* ------------------------------------------------------------------ *)
(* The acceptance pin: at 8 synchronised clients, group commit cuts
   store RPC rounds per commit by at least 1.5x (measured: well above),
   without losing a single commit. *)

let test_round_reduction_pin () =
  let reduction, solo, grouped = Workload.Exp_groupcommit.round_reduction () in
  check_int "no commit lost to batching" solo.Workload.Exp_groupcommit.g_commits
    grouped.Workload.Exp_groupcommit.g_commits;
  check_bool
    (Printf.sprintf ">= 1.5x store-round reduction (got %.2fx)" reduction)
    true (reduction >= 1.5);
  check_bool "batches actually formed" true
    (grouped.Workload.Exp_groupcommit.g_batches > 0)

(* ------------------------------------------------------------------ *)
(* Property: batched and solo execution reach byte-equal store states.
   Random client counts and per-client offsets; every (client, wave)
   commit time is distinct, so action serials match across the two runs
   and states can be compared for full byte equality (payload AND
   version). Offsets spread commits within and across the window, mixing
   multi-member batches, singletons and solo stretches. *)

let prop_grouped_solo_byte_equal =
  QCheck.Test.make ~name:"batched and solo runs reach byte-equal stores"
    ~count:20
    QCheck.(pair int64 (list_of_size (Gen.int_range 2 5) (int_range 0 120)))
    (fun (seed, offsets) ->
      let run window =
        let clients =
          List.mapi (fun i _ -> Printf.sprintf "c%d" (i + 1)) offsets
        in
        let w = Service.create ~seed ~commit_batch_window:window (topo clients)
        in
        let uids = List.map (fun c -> new_counter w ("obj-" ^ c)) clients in
        Service.run ~until:1.0 w;
        let eng = Service.engine w in
        let commits = ref 0 in
        List.iteri
          (fun i client ->
            let uid = List.nth uids i in
            let k = List.nth offsets i in
            Service.spawn_client w client (fun () ->
                List.iter
                  (fun t ->
                    Sim.Engine.sleep eng
                      (Float.max 0.0 (t -. Sim.Engine.now eng));
                    match commit_add w ~client ~uid with
                    | Ok () -> incr commits
                    | Error _ -> ())
                  [
                    10.0 +. float_of_int (k mod 17)
                    +. (0.013 *. float_of_int i);
                    60.0 +. float_of_int (k mod 23)
                    +. (0.013 *. float_of_int i);
                  ]))
          clients;
        Service.run w;
        let sh = Service.store_host w in
        let states =
          List.map
            (fun uid ->
              List.map
                (fun s ->
                  Store.Object_store.read (Action.Store_host.objects sh s) uid)
                stores)
            uids
        in
        (!commits, states)
      in
      let commits_solo, solo = run 0.0 in
      let commits_grouped, grouped = run 4.0 in
      commits_solo = commits_grouped
      && List.for_all2
           (List.for_all2 (fun a b ->
                match (a, b) with
                | Some a, Some b -> Store.Object_state.equal a b
                | None, None -> true
                | _ -> false))
           solo grouped)

let suite =
  [
    ( "group commit",
      [
        Alcotest.test_case "quiescence pulls the window closed" `Quick
          test_quiescence_pull;
        Alcotest.test_case "held-open batch expires at the window" `Quick
          test_window_expiry;
        Alcotest.test_case "singleton batch matches the solo scatter" `Quick
          test_singleton_matches_solo;
        Alcotest.test_case "stale member peels out, batchmate commits" `Quick
          test_peel_out;
        Alcotest.test_case "floors piggyback on batched phase-2 acks" `Quick
          test_floor_piggyback;
        Alcotest.test_case "pin: batched ack carries only the batch's floors"
          `Quick test_ack_scoped_to_batch;
        Alcotest.test_case "pin: >= 1.5x round reduction at 8 clients" `Quick
          test_round_reduction_pin;
        Test_util.qcheck prop_grouped_solo_byte_equal;
      ] );
  ]
