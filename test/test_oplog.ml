(* Op-log delta replication: unit tests of the log/vector machinery and
   end-to-end worlds exercising delta prepares, fallbacks, the miss-retry
   round, duplicate delivery and the delta ≡ full-state equivalence. *)

open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let v n = { Store.Version.counter = n; committed_by = Printf.sprintf "a%d" n }

let topo =
  {
    Service.gvd_node = "ns";
    gvd_nodes = [];
    server_nodes = [ "alpha" ];
    store_nodes = [ "t1"; "t2" ];
    client_nodes = [ "c1"; "c2" ];
  }

let read_payload w node uid =
  match
    Store.Object_store.read
      (Action.Store_host.objects (Service.store_host w) node)
      uid
  with
  | Some s -> s.Store.Object_state.payload
  | None -> Alcotest.failf "no state on %s" node

(* One committed action from [client]; drained to quiescence so the
   phase-2 acknowledgements (which advance the version vector) land. *)
let commit_op w client uid op =
  let r = ref (Error "fiber never ran") in
  Service.spawn_client w client (fun () ->
      r :=
        Service.with_bound w ~client ~scheme:Scheme.Standard
          ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
            ignore (Service.invoke w group ~act op)));
  Service.run w;
  match !r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "commit by %s failed: %s" client e

(* ------------------------------------------------------------------ *)
(* Unit: the suffix decision rule *)

let test_suffix_of () =
  let chain = [ (v 2, [ "b" ]); (v 3, [ "c" ]); (v 4, [ "d" ]) ] in
  (match Replica.Oplog.suffix_of chain ~base:1 ~upto:4 with
  | Some s -> check_int "whole chain" 3 (List.length s)
  | None -> Alcotest.fail "whole chain should be a suffix");
  (match Replica.Oplog.suffix_of chain ~base:3 ~upto:4 with
  | Some [ (vv, _) ] -> check_int "tail only" 4 vv.Store.Version.counter
  | _ -> Alcotest.fail "tail suffix expected");
  check_bool "missing head forces fallback" true
    (Replica.Oplog.suffix_of chain ~base:0 ~upto:4 = None);
  check_bool "gap forces fallback" true
    (Replica.Oplog.suffix_of [ (v 2, [ "b" ]); (v 4, [ "d" ]) ] ~base:1 ~upto:4
    = None);
  check_bool "op-less step forces fallback" true
    (Replica.Oplog.suffix_of [ (v 2, []) ] ~base:1 ~upto:2 = None);
  check_bool "chain short of target forces fallback" true
    (Replica.Oplog.suffix_of chain ~base:1 ~upto:5 = None);
  check_bool "base at target is not a delta" true
    (Replica.Oplog.suffix_of chain ~base:4 ~upto:4 = None)

(* Unit: size/age compaction and the truncation metrics *)

let test_compaction () =
  let m = Sim.Metrics.create () in
  let l = Replica.Oplog.create ~max_records:3 ~max_age:100.0 m in
  let uid = Store.Uid.fresh (Store.Uid.supply ()) ~label:"o" in
  for i = 1 to 5 do
    Replica.Oplog.append l ~now:(float_of_int i) ~node:"s1" ~uid
      ~version:(v i) ~ops:[ "op" ]
  done;
  check_int "size-bounded" 3
    (List.length (Replica.Oplog.records l ~node:"s1" ~uid));
  check_int "truncations charged" 2 (Sim.Metrics.counter m "oplog.truncations");
  check_int "resident gauge" 3 (Sim.Metrics.counter m "oplog.resident_records");
  check_int "resident accessor" 3 (Replica.Oplog.resident l);
  (* Oldest-first and contiguous: exactly v3..v5 retained. *)
  (match Replica.Oplog.records l ~node:"s1" ~uid with
  | [ (a, _); (b, _); (c, _) ] ->
      check_int "oldest retained" 3 a.Store.Version.counter;
      check_int "middle" 4 b.Store.Version.counter;
      check_int "newest" 5 c.Store.Version.counter
  | _ -> Alcotest.fail "expected three records");
  (* An append far in the future ages everything else out. *)
  Replica.Oplog.append l ~now:200.0 ~node:"s1" ~uid ~version:(v 6)
    ~ops:[ "op" ];
  check_int "age-bounded" 1
    (List.length (Replica.Oplog.records l ~node:"s1" ~uid));
  check_int "aged records counted as truncations" 5
    (Sim.Metrics.counter m "oplog.truncations");
  (* A crash forgets exactly the crashed node's logs. *)
  Replica.Oplog.append l ~now:200.0 ~node:"s2" ~uid ~version:(v 6)
    ~ops:[ "op" ];
  let s2 = Replica.Oplog.records l ~node:"s2" ~uid in
  Replica.Oplog.drop_node l "s1";
  check_int "crash drops the node's logs" 1 (Replica.Oplog.resident l);
  check_bool "other node's log untouched" true
    (Replica.Oplog.records l ~node:"s1" ~uid = []
    && Replica.Oplog.records l ~node:"s2" ~uid = s2)

(* Unit: acknowledged-version vector life cycle *)

let test_version_vector () =
  let l = Replica.Oplog.create (Sim.Metrics.create ()) in
  let uid = Store.Uid.fresh (Store.Uid.supply ()) ~label:"o" in
  let acked () = Replica.Oplog.last_acked l ~client:"c1" ~store:"t1" ~uid in
  check_bool "initially unknown" true (acked () = None);
  Replica.Oplog.note_acked l ~client:"c1" ~store:"t1" ~uid 4;
  check_bool "learned" true (acked () = Some 4);
  Replica.Oplog.note_acked l ~client:"c1" ~store:"t1" ~uid (-1);
  check_bool "negative counter clears" true (acked () = None);
  Replica.Oplog.note_acked l ~client:"c1" ~store:"t1" ~uid 5;
  Replica.Oplog.forget_ack l ~client:"c1" ~store:"t1" ~uid;
  check_bool "lost acknowledgement forgets" true (acked () = None);
  Replica.Oplog.note_acked l ~client:"c1" ~store:"t1" ~uid 6;
  Replica.Oplog.note_acked l ~client:"c2" ~store:"t1" ~uid 7;
  Replica.Oplog.drop_client l "c1";
  check_bool "client crash drops its vector" true (acked () = None);
  check_bool "other client's vector untouched" true
    (Replica.Oplog.last_acked l ~client:"c2" ~store:"t1" ~uid = Some 7);
  (* Store crashes forget exactly that store's shared floors. *)
  Replica.Oplog.note_store l ~store:"t1" ~uid 7;
  Replica.Oplog.note_store l ~store:"t2" ~uid 7;
  Replica.Oplog.drop_store l "t1";
  check_bool "crashed store's floor gone" true
    (Replica.Oplog.store_floor l ~store:"t1" ~uid = None);
  check_bool "other store's floor untouched" true
    (Replica.Oplog.store_floor l ~store:"t2" ~uid = Some 7)

(* Unit: golden-shadow sliding window *)

let test_golden_window () =
  let l = Replica.Oplog.create (Sim.Metrics.create ()) in
  let uid = Store.Uid.fresh (Store.Uid.supply ()) ~label:"o" in
  Replica.Oplog.record_golden l ~uid ~version:(v 7) ~payload:"p7";
  check_bool "hit" true (Replica.Oplog.golden l ~uid ~version:(v 7) = Some "p7");
  check_bool "miss" true (Replica.Oplog.golden l ~uid ~version:(v 6) = None);
  (* Identity-exact: a racing action's shadow at the same counter neither
     shadows nor answers for the committed one. *)
  let rival = { Store.Version.counter = 7; committed_by = "loser" } in
  Replica.Oplog.record_golden l ~uid ~version:rival ~payload:"ghost";
  check_bool "same counter, other action" true
    (Replica.Oplog.golden l ~uid ~version:rival = Some "ghost");
  check_bool "winner's shadow survives the rival" true
    (Replica.Oplog.golden l ~uid ~version:(v 7) = Some "p7");
  Replica.Oplog.record_golden l ~uid ~version:(v 71) ~payload:"p71";
  check_bool "window evicts old versions" true
    (Replica.Oplog.golden l ~uid ~version:(v 7) = None);
  check_bool "new version retained" true
    (Replica.Oplog.golden l ~uid ~version:(v 71) = Some "p71")

(* ------------------------------------------------------------------ *)
(* End-to-end: repeated commits by one client ship deltas after the
   first full-state round trip. *)

let test_delta_hits_end_to_end () =
  let w = Service.create ~seed:7L ~delta_shipping:true ~force_delta:true topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  Service.run ~until:1.0 w;
  for _ = 1 to 4 do
    commit_op w "c1" uid "add 5"
  done;
  let m = Service.metrics w in
  (* First commit: no vector entry, full state to both stores. The next
     three: both stores acknowledged, one-step deltas. *)
  check_int "delta hits" 6 (Sim.Metrics.counter m "commit.delta_hits");
  check_int "full-state fallbacks (first commit)" 2
    (Sim.Metrics.counter m "commit.delta_fallbacks");
  check_int "no delta miss" 0 (Sim.Metrics.counter m "store.delta_misses");
  check_bool "bytes were charged" true
    (Sim.Metrics.counter m "commit.bytes_shipped" > 0);
  List.iter
    (fun node -> check_string ("state at " ^ node) "20" (read_payload w node uid))
    [ "t1"; "t2" ];
  Alcotest.(check (list string)) "audit clean" [] (Workload.Audit.chaos w)

(* End-to-end: forced log truncation (max_records = 1) leaves a client
   whose vector lags two versions with no usable suffix — it must fall
   back to full state up front, never reaching the miss path. *)

let test_truncation_forces_fallback () =
  let w = Service.create ~seed:9L ~delta_shipping:true ~force_delta:true topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  Service.run ~until:1.0 w;
  Replica.Oplog.set_limits
    (Replica.Server.oplog (Service.server_runtime w))
    ~max_records:1 ();
  commit_op w "c1" uid "add 1" (* v1: full (no vector, empty floor) *);
  commit_op w "c2" uid "add 1"
  (* v2: c2 has no vector entry, but c1's phase-2 acks seeded the shared
     per-store floor at v1 — one-step delta. *);
  commit_op w "c2" uid "add 1" (* v3: one-step delta off c2's own vector *);
  let m = Service.metrics w in
  check_int "c2's commits delta-hit both stores (floor + own vector)" 4
    (Sim.Metrics.counter m "commit.delta_hits");
  let fallbacks_before = Sim.Metrics.counter m "commit.delta_fallbacks" in
  (* c1's vector says v1, but the log now retains only v3: the suffix
     (1, 4] is truncated, so c1 ships full state. The shared floor (at
     v3 by now) would paper over the stale vector — clear it so the
     truncated-suffix path is what gets exercised. *)
  let olog = Replica.Server.oplog (Service.server_runtime w) in
  Replica.Oplog.drop_store olog "t1";
  Replica.Oplog.drop_store olog "t2";
  commit_op w "c1" uid "add 1";
  check_int "truncation forced full-state fallbacks" (fallbacks_before + 2)
    (Sim.Metrics.counter m "commit.delta_fallbacks");
  check_int "fallback chosen up front, no miss round" 0
    (Sim.Metrics.counter m "store.delta_misses");
  check_bool "records were truncated" true
    (Sim.Metrics.counter m "oplog.truncations" > 0);
  List.iter
    (fun node -> check_string ("state at " ^ node) "4" (read_payload w node uid))
    [ "t1"; "t2" ];
  Alcotest.(check (list string)) "audit clean" [] (Workload.Audit.chaos w)

(* End-to-end: a poisoned (stale) vector entry sends a delta whose base
   the store has already passed — the store votes a miss reporting its
   counter, the coordinator reseeds and retries full state in a second
   round, and the commit still lands. *)

let test_stale_vector_miss_and_retry () =
  let w = Service.create ~seed:13L ~delta_shipping:true ~force_delta:true topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  Service.run ~until:1.0 w;
  for _ = 1 to 3 do
    commit_op w "c1" uid "add 1"
  done;
  let olog = Replica.Server.oplog (Service.server_runtime w) in
  (* Claim t1 is still at v1; it holds v3. The suffix (1, 4] is in the
     log, so a delta with base 1 goes out and misses. The shared floor
     knows better (max-merge would override the poisoned ack), so clear
     it first — the miss path is what this test is after. *)
  Replica.Oplog.drop_store olog "t1";
  Replica.Oplog.note_acked olog ~client:"c1" ~store:"t1" ~uid 1;
  let m = Service.metrics w in
  let hits_before = Sim.Metrics.counter m "commit.delta_hits" in
  commit_op w "c1" uid "add 1";
  check_int "one miss at the poisoned store" 1
    (Sim.Metrics.counter m "store.delta_misses");
  check_int "the healthy store still delta-hit" (hits_before + 1)
    (Sim.Metrics.counter m "commit.delta_hits");
  check_bool "vector reseeded to the committed version" true
    (Replica.Oplog.last_acked olog ~client:"c1" ~store:"t1" ~uid = Some 4);
  List.iter
    (fun node -> check_string ("state at " ^ node) "4" (read_payload w node uid))
    [ "t1"; "t2" ];
  Alcotest.(check (list string)) "audit clean" [] (Workload.Audit.chaos w)

(* Duplicate delivery, raw endpoint level: the same delta prepare
   delivered twice stages the identical state; re-delivered after the
   commit it resolves to the store's own (already advanced) state. *)

let test_duplicate_delta_prepare_idempotent () =
  let w = Service.create ~seed:3L ~delta_shipping:true topo in
  let sh = Service.store_host w in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~initial:"5"
      ~sv:[ "alpha" ] ~st:[ "t1" ] ()
  in
  Service.run ~until:1.0 w;
  let v1 = Store.Version.next Store.Version.initial ~committed_by:"dupact" in
  let delta =
    Action.Store_host.Delta
      { Action.Store_host.d_impl = "counter"; d_base = 0; d_steps = [ (v1, [ "add 3" ]) ] }
  in
  let send action =
    match
      Action.Store_host.prepare_each sh ~from:"c1" ~action ~coordinator:"c1"
        [ ("t1", [ (uid, delta) ]) ]
    with
    | [ (_, Ok (Action.Store_host.Vote_yes _)) ] -> ()
    | [ (_, Ok (Action.Store_host.Vote_stale | Action.Store_host.Vote_delta_miss _)) ]
      ->
        Alcotest.failf "%s: delta refused" action
    | _ -> Alcotest.failf "%s: rpc failure" action
  in
  let staged action =
    match
      Store.Intent_log.staged_write (Action.Store_host.log sh "t1") ~action uid
    with
    | Some s -> s
    | None -> Alcotest.failf "%s: nothing staged" action
  in
  Service.spawn_client w "c1" (fun () ->
      send "dupact";
      let first = staged "dupact" in
      send "dupact" (* duplicate, before the decision *);
      let second = staged "dupact" in
      check_bool "duplicate staged the identical state" true
        (Store.Object_state.equal first second);
      check_string "folded payload" "8" first.Store.Object_state.payload;
      (match
         Action.Store_host.commit sh ~from:"c1" ~store:"t1" ~action:"dupact"
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "phase-2 commit failed");
      check_string "committed fold" "8" (read_payload w "t1" uid);
      (* Late duplicate, after the commit: the store is already at the
         delta's target version and accepts by staging its own state. *)
      send "dupact2";
      check_bool "post-commit re-delivery stages the store's own state" true
        (Store.Object_state.equal (staged "dupact2")
           (Option.get
              (Store.Object_store.read
                 (Action.Store_host.objects sh "t1")
                 uid)));
      match
        Action.Store_host.abort sh ~from:"c1" ~store:"t1" ~action:"dupact2"
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "withdrawal failed");
  Service.run w;
  check_string "state undisturbed by the withdrawn duplicate" "8"
    (read_payload w "t1" uid)

(* Duplicate delivery, network level: a link that duplicates and
   reorders every client->store message (and drops a few) while deltas
   are being shipped. The dedup layer plus delta idempotence must keep
   every store byte-correct. *)

let test_delta_under_duplicating_link () =
  let w = Service.create ~seed:21L ~delta_shipping:true ~force_delta:true topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  Service.run ~until:1.0 w;
  let net = Service.network w in
  List.iter
    (fun (src, dst) ->
      Net.Fault.link_faults_for net ~at:1.0 ~duration:600.0 ~drop:0.1
        ~dup:1.0 ~reorder:0.3 ~spike_prob:0.0 ~spike:0.0 ~src ~dst ())
    [ ("c1", "t1"); ("c1", "t2"); ("t1", "c1"); ("t2", "c1") ];
  let committed = ref 0 in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 8 do
        (match
           Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
             ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
               ignore (Service.invoke w group ~act "add 1"))
         with
        | Ok () -> incr committed
        | Error _ -> ());
        Sim.Engine.sleep (Service.engine w) 5.0
      done);
  Service.run w;
  (* Same janitor pass as the chaos harness: re-pull any phase-2
     decision a dropped message left in doubt. *)
  List.iter
    (fun node ->
      Net.Network.spawn_on net node ~name:(node ^ ".resolve") (fun () ->
          Action.Recovery.resolve_in_doubt (Service.atomic w) ~node ()))
    [ "t1"; "t2" ];
  Service.run w;
  let m = Service.metrics w in
  check_bool "committed something" true (!committed > 0);
  check_bool "duplicates were injected" true
    (Sim.Metrics.counter m "fault.dup" > 0);
  check_bool "deltas were shipped" true
    (Sim.Metrics.counter m "commit.delta_hits" > 0);
  (* The newest store state equals the acknowledged commit count: every
     duplicate/reordered delta folded exactly once. *)
  let newest =
    List.fold_left
      (fun best node ->
        match
          Store.Object_store.read
            (Action.Store_host.objects (Service.store_host w) node)
            uid
        with
        | Some s -> (
            match best with
            | Some b when not (Store.Object_state.newer_than s b) -> Some b
            | _ -> Some s)
        | None -> best)
      None [ "t1"; "t2" ]
  in
  (match newest with
  | Some s ->
      check_string "exact count" (string_of_int !committed)
        s.Store.Object_state.payload
  | None -> Alcotest.fail "no committed state");
  Alcotest.(check (list string)) "audit clean" [] (Workload.Audit.chaos w)

(* The headline payoff, pinned as a test: small writes to a large object
   ship at least 2x fewer payload bytes with delta shipping on. *)

let test_large_object_byte_reduction () =
  let reduction = Workload.Exp_delta.large_object_reduction () in
  if reduction < 2.0 then
    Alcotest.failf
      "expected >=2x bytes_shipped reduction for the large object, got %.2fx"
      reduction

(* ------------------------------------------------------------------ *)
(* The equivalence property: one client, a random op sequence, a random
   compaction bound and a random vector poisoning — the delta-shipping
   world must end byte-identical (payload and version) to the
   full-state world on every store, and audit clean. *)

let prop_delta_equals_full =
  QCheck.Test.make
    ~name:"delta shipping == full-state shipping (byte equality)" ~count:25
    QCheck.(
      quad int64 (int_range 0 4) (int_range 0 9)
        (list_of_size (Gen.int_range 1 10) (pair (int_range 0 5) (int_range 0 99))))
    (fun (seed, max_records, poison_at, kvs) ->
      let run delta =
        let w = Service.create ~seed ~delta_shipping:delta topo in
        let uid =
          Service.create_object w ~name:"obj" ~impl:"kvmap" ~sv:[ "alpha" ]
            ~st:[ "t1"; "t2" ] ()
        in
        Service.run ~until:1.0 w;
        let olog = Replica.Server.oplog (Service.server_runtime w) in
        if delta then Replica.Oplog.set_limits olog ~max_records ();
        Service.spawn_client w "c1" (fun () ->
            List.iteri
              (fun i (k, value) ->
                (match
                   Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
                     ~policy:Replica.Policy.Single_copy_passive ~uid
                     (fun act group ->
                       ignore
                         (Service.invoke w group ~act
                            (Printf.sprintf "put k%d v%d" k value)))
                 with
                | Ok () -> ()
                | Error e -> QCheck.Test.fail_reportf "commit failed: %s" e);
                (* Poison the vector mid-stream: the next copy ships a
                   delta from a base the store has already passed (miss
                   -> reseed -> full retry) or finds the suffix
                   truncated (up-front fallback). Either way it must
                   land the same bytes. *)
                if delta && i = poison_at then
                  Replica.Oplog.note_acked olog ~client:"c1" ~store:"t1" ~uid
                    (i - 2))
              kvs);
        Service.run w;
        let states =
          List.map
            (fun node ->
              match
                Store.Object_store.read
                  (Action.Store_host.objects (Service.store_host w) node)
                  uid
              with
              | Some s ->
                  Printf.sprintf "%s@%s" s.Store.Object_state.payload
                    (Store.Version.to_string s.Store.Object_state.version)
              | None -> "(none)")
            [ "t1"; "t2" ]
        in
        (states, if delta then Workload.Audit.chaos w else [])
      in
      let full, _ = run false in
      let shipped, violations = run true in
      if violations <> [] then
        QCheck.Test.fail_reportf "audit violations: %s"
          (String.concat "; " violations);
      if full <> shipped then
        QCheck.Test.fail_reportf "divergence:@.full:  %s@.delta: %s"
          (String.concat " | " full)
          (String.concat " | " shipped);
      true)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "oplog.unit",
      [
        tc "suffix decision rule" `Quick test_suffix_of;
        tc "size/age compaction and metrics" `Quick test_compaction;
        tc "acknowledged-version vector" `Quick test_version_vector;
        tc "golden-shadow window" `Quick test_golden_window;
      ] );
    ( "oplog.delta",
      [
        tc "repeat commits ship deltas" `Quick test_delta_hits_end_to_end;
        tc "truncation forces full-state fallback" `Quick
          test_truncation_forces_fallback;
        tc "stale vector: miss, reseed, full retry" `Quick
          test_stale_vector_miss_and_retry;
        tc "duplicate delta prepares are idempotent" `Quick
          test_duplicate_delta_prepare_idempotent;
        tc "deltas under a duplicating link" `Quick
          test_delta_under_duplicating_link;
        tc "large object ships >=2x fewer bytes" `Quick
          test_large_object_byte_reduction;
      ] );
    ( "oplog.properties",
      [ Test_util.qcheck prop_delta_equals_full ] );
  ]
