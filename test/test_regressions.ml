(* Regression tests for defects found while building the experiments.
   Each test documents the failure mode it pins down. *)

open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let topo =
  {
    Service.gvd_node = "ns";
    gvd_nodes = [];
    server_nodes = [ "alpha" ];
    store_nodes = [ "beta1"; "beta2" ];
    client_nodes = [ "c1"; "c2" ];
  }

let store_payload w node uid =
  match
    Store.Object_store.read
      (Action.Store_host.objects (Service.store_host w) node)
      uid
  with
  | Some s -> Some s.Store.Object_state.payload
  | None -> None

(* Defect: two objects committed in one action overwrote each other's
   prepare record at the shared store node — the first object's write was
   silently lost (money creation in the bank example). Prepares for one
   action must merge. *)
let test_multi_object_action_commits_both () =
  let w = Service.create ~seed:1L topo in
  let a =
    Service.create_object w ~name:"a" ~impl:"account" ~initial:"100"
      ~sv:[ "alpha" ] ~st:[ "beta1"; "beta2" ] ()
  in
  let b =
    Service.create_object w ~name:"b" ~impl:"account" ~initial:"0"
      ~sv:[ "alpha" ] ~st:[ "beta1"; "beta2" ] ()
  in
  Service.spawn_client w "c1" (fun () ->
      match
        Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
            let bind uid =
              match
                Binder.bind (Service.binder w) ~act ~scheme:Scheme.Standard
                  ~uid ~policy:Replica.Policy.Single_copy_passive
              with
              | Ok bd -> bd.Binder.bd_group
              | Error e ->
                  raise (Action.Atomic.Abort (Binder.bind_error_to_string e))
            in
            let ga = bind a and gb = bind b in
            ignore (Service.invoke w ga ~act "withdraw 30");
            ignore (Service.invoke w gb ~act "deposit 30"))
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
  Service.run w;
  Alcotest.(check (option string)) "a debited" (Some "70") (store_payload w "beta1" a);
  Alcotest.(check (option string)) "b credited" (Some "30") (store_payload w "beta1" b);
  Alcotest.(check (option string)) "a on beta2 too" (Some "70") (store_payload w "beta2" a)

(* Defect: a client crash mid-action left its database locks held forever
   (the coordinator never runs the action-end protocol), wedging the entry
   for every later client. The orphan guard must abort the dead client's
   action at the database. *)
let test_orphan_guard_releases_dead_clients_locks () =
  let w = Service.create ~seed:2L topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  let eng = Service.engine w in
  let net = Service.network w in
  (* c1 takes the sv read lock inside its action and then dies. *)
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             (match Gvd.get_server (Service.gvd w) ~act uid with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "get_server");
             Sim.Engine.sleep eng 1000.0)));
  Net.Fault.crash_at net ~at:10.0 "c1";
  (* After the failure detector fires, c2's Insert (write lock) succeeds. *)
  let inserted = ref false in
  Sim.Engine.schedule eng ~delay:20.0 (fun () ->
      Net.Network.spawn_on net "c2" (fun () ->
          ignore
            (Action.Atomic.atomically (Service.atomic w) ~node:"c2" (fun act ->
                 match Gvd.insert (Service.gvd w) ~act ~uid "alpha" with
                 | Ok (Gvd.Granted ()) -> inserted := true
                 | _ -> ()))));
  Sim.Engine.run ~until:100.0 eng;
  check_bool "insert went through after cleanup" true !inserted;
  check_bool "orphan abort counted" true
    (Sim.Metrics.counter (Service.metrics w) "gvd.orphan_aborts" >= 1)

(* Defect: a client crash mid-action left the server instance's locks and
   staged state behind, blocking later writers. *)
let test_orphan_guard_releases_server_instance () =
  let w = Service.create ~seed:3L topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  let eng = Service.engine w in
  let net = Service.network w in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
           ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
             ignore (Service.invoke w group ~act "add 5");
             Sim.Engine.sleep eng 1000.0)));
  Net.Fault.crash_at net ~at:10.0 "c1";
  let outcome = ref "none" in
  Sim.Engine.schedule eng ~delay:30.0 (fun () ->
      Net.Network.spawn_on net "c2" (fun () ->
          match
            Service.with_bound w ~client:"c2" ~scheme:Scheme.Standard
              ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
                Service.invoke w group ~act "add 7")
          with
          | Ok reply -> outcome := reply
          | Error e -> outcome := "error: " ^ e));
  Sim.Engine.run ~until:200.0 eng;
  (* c1's staged +5 must be gone; c2 sees 0 + 7. *)
  check_string "writer got clean state" "7" !outcome

(* Defect: under schemes B/C the bind read-then-promote pattern made two
   concurrent binders refuse each other's write promotion. The bind action
   must take the write lock up front (get_server_update). *)
let test_concurrent_independent_binds_both_succeed () =
  let w = Service.create ~seed:4L topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  let ok = ref 0 in
  List.iter
    (fun client ->
      Service.spawn_client w client (fun () ->
          match
            Binder.bind_independent (Service.binder w) ~client ~uid
              ~policy:Replica.Policy.Single_copy_passive
          with
          | Ok pb ->
              incr ok;
              Binder.release_independent (Service.binder w) pb
          | Error _ -> ()))
    [ "c1"; "c2" ];
  Service.run w;
  check_int "both binds succeeded" 2 !ok;
  check_bool "quiescent after releases" true (Gvd.quiescent (Service.gvd w) uid)

(* Defect: a bind that incremented use lists but failed activation leaked
   the counters (decrement used the activated member list, not the
   incremented one), poisoning quiescence forever. *)
let test_failed_activation_does_not_leak_counters () =
  let w = Service.create ~seed:5L topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  let net = Service.network w in
  (* Make the store unreadable so activation fails after the increments
     committed: alpha can't load the state. *)
  Net.Network.crash net "beta1";
  Service.spawn_client w "c1" (fun () ->
      match
        Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
          ~policy:Replica.Policy.Single_copy_passive
      with
      | Ok _ -> Alcotest.fail "activation unexpectedly succeeded"
      | Error _ -> ());
  Service.run w;
  check_bool "no leaked counters" true (Gvd.quiescent (Service.gvd w) uid)

(* Defect: counters on servers no longer in Sv were invisible to
   introspection and to the cleanup daemon. *)
let test_cleanup_sees_counters_on_removed_servers () =
  let w =
    Service.create ~seed:6L ~cleanup_period:10.0
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha"; "alpha2" ];
        store_nodes = [ "beta1" ];
        client_nodes = [ "c1"; "c2" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter"
      ~sv:[ "alpha"; "alpha2" ] ~st:[ "beta1" ] ()
  in
  let eng = Service.engine w in
  let net = Service.network w in
  (* c1 binds (counters on alpha+alpha2), then crashes; later alpha is
     removed from Sv by another bind while down. The cleanup daemon must
     still find c1's counter on the removed alpha. *)
  Service.spawn_client w "c1" (fun () ->
      match
        Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
          ~policy:(Replica.Policy.Active 2)
      with
      | Ok _ -> Net.Network.crash net "c1"
      | Error e -> Alcotest.fail (Binder.bind_error_to_string e))
    ;
  Sim.Engine.schedule eng ~delay:20.0 (fun () -> Net.Network.crash net "alpha");
  Sim.Engine.schedule eng ~delay:30.0 (fun () ->
      Net.Network.spawn_on net "c2" (fun () ->
          match
            Binder.bind_independent (Service.binder w) ~client:"c2" ~uid
              ~policy:Replica.Policy.Single_copy_passive
          with
          | Ok pb -> Binder.release_independent (Service.binder w) pb
          | Error _ -> ()));
  Sim.Engine.run ~until:200.0 eng;
  check_bool "daemon cleaned the hidden counter" true
    (Gvd.quiescent (Service.gvd w) uid)

(* Defect: a stale (freshly recovered, instance-less) replica's Not_active
   reply could outrace a live replica's real reply under active
   replication. *)
let test_stale_replica_does_not_outrace_live_one () =
  let w =
    Service.create ~seed:7L
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "a1"; "a2" ];
        store_nodes = [ "beta1" ];
        client_nodes = [ "c1" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "a1"; "a2" ]
      ~st:[ "beta1" ] ()
  in
  let eng = Service.engine w in
  let net = Service.network w in
  let outcome = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () ->
      outcome :=
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:(Replica.Policy.Active 2) ~uid (fun act group ->
            ignore (Service.invoke w group ~act "incr");
            (* a1 bounces: it comes back up with no instance, and will
               answer Not_active to the next multicast invocation. *)
            Net.Network.crash net "a1";
            Sim.Engine.sleep eng 2.0;
            Net.Network.recover net "a1";
            Sim.Engine.sleep eng 5.0;
            Service.invoke w group ~act "incr"));
  Sim.Engine.run eng;
  check_bool "live replica answered" true (!outcome = Ok "2")

(* Defect: before-images were whole-entry snapshots while the server and
   state lists are locked independently (§4.1): an action mutating the sv
   side could snapshot another action's in-flight st mutation, and its
   later abort would resurrect the other action's rolled-back change.
   Interleaving: A includes t2 (st write lock) -> B increments (sv write
   lock, snapshots entry WITH t2) -> A aborts (St back to [t1]) -> B
   aborts -> with whole-entry undo St would be [t1; t2] again. *)
let test_split_undo_no_resurrection () =
  let w = Service.create ~seed:9L topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  let eng = Service.engine w in
  let gvd = Service.gvd w in
  (* A: include beta2, hold, then abort at t=30. *)
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             (match Gvd.include_ gvd ~act ~uid "beta2" with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "include");
             Sim.Engine.sleep eng 30.0;
             raise (Action.Atomic.Abort "A aborts"))));
  (* B: a bit later, increment (sv side), hold past A's abort, abort. *)
  Service.spawn_client w "c2" (fun () ->
      Sim.Engine.sleep eng 10.0;
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c2" (fun act ->
             (match Gvd.increment gvd ~act ~uid ~client:"c2" [ "alpha" ] with
             | Ok (Gvd.Granted ()) -> ()
             | _ -> Alcotest.fail "increment");
             Sim.Engine.sleep eng 40.0;
             raise (Action.Atomic.Abort "B aborts"))));
  Service.run w;
  Alcotest.(check (list string))
    "A's aborted include stays aborted" [ "beta1" ]
    (Gvd.current_st gvd uid);
  check_bool "B's counters rolled back too" true (Gvd.quiescent gvd uid)

(* Defect: every store prepare placed a crash watch on the action's
   coordinator and nothing withdrew it once the intent resolved, so a
   client node's watch ring grew by one per prepare for the life of the
   world (hundreds per client after one benchmark episode). Watches on
   the coordinator must go when the intents they guard resolve. *)
let test_no_crash_watches_after_commits () =
  let w = Service.create ~seed:3L topo in
  let uid =
    Service.create_object w ~name:"ctr" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  let n = 12 in
  let commits = ref 0 in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to n do
        match
          Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
            ~policy:Replica.Policy.Single_copy_passive ~uid
            (fun act group -> ignore (Service.invoke w group ~act "add 1"))
        with
        | Ok () -> incr commits
        | Error _ -> ()
      done);
  Service.run w;
  check_int "every action committed" n !commits;
  let net = Service.network w in
  let m = Net.Network.metrics net in
  check_bool "prepares reached the stores" true
    (Sim.Metrics.counter m "rpc.op.store.prepare_batch"
     + Sim.Metrics.counter m "rpc.op.store.prepare"
    >= n);
  List.iter
    (fun node ->
      check_int (node ^ " holds no crash watch") 0
        (Net.Network.watch_count net node))
    (Net.Network.node_ids net)

(* Defect: a commit's cost grew with the number of objects that exist:
   every batched phase-2 ack listed the committed counter of every object
   on the store, and the batch leader folded the whole listing. The same
   work — 20 clients x 20 scheme-B [add 1] actions on uniformly random
   objects, default knobs, so group commit is on — must allocate about as
   much per commit in a world of 8000 objects as in one of 200 (the
   defect made it about 8x). *)
let minor_words_per_commit ~objects =
  let servers = [ "s1"; "s2"; "s3"; "s4" ] in
  let clients = List.init 20 (fun i -> Printf.sprintf "c%d" i) in
  let w =
    Service.create ~seed:7L
      {
        Service.gvd_node = "ns";
        gvd_nodes = [ "ns1"; "ns2"; "ns3" ];
        server_nodes = servers;
        store_nodes = [ "t1"; "t2"; "t3" ];
        client_nodes = clients;
      }
  in
  (* The debug trace keeps a string per protocol step; measure the
     protocol, not that log. *)
  Sim.Trace.set_enabled (Service.trace w) false;
  let uids =
    Array.init objects (fun i ->
        Service.create_object w ~name:(Printf.sprintf "o%d" i) ~impl:"counter"
          ~sv:servers ~st:[ "t1"; "t2" ] ())
  in
  Service.run ~until:1.0 w;
  let rng = Sim.Rng.create 5L in
  let commits = ref 0 in
  List.iter
    (fun client ->
      let crng = Sim.Rng.split rng in
      Service.spawn_client w client (fun () ->
          for _ = 1 to 20 do
            let uid = uids.(Sim.Rng.int crng objects) in
            match
              Service.with_bound w ~client ~scheme:Scheme.Independent
                ~policy:Replica.Policy.Single_copy_passive ~uid
                (fun act group -> ignore (Service.invoke w group ~act "add 1"))
            with
            | Ok () -> incr commits
            | Error _ -> ()
          done))
    clients;
  let before = Gc.minor_words () in
  Service.run w;
  let words = Gc.minor_words () -. before in
  check_int "every action committed" 400 !commits;
  words /. float_of_int !commits

let test_commit_cost_independent_of_world () =
  let small = minor_words_per_commit ~objects:200 in
  let large = minor_words_per_commit ~objects:8000 in
  if large > 1.25 *. small then
    Alcotest.failf
      "minor words per commit: %.0f at 8000 objects vs %.0f at 200 (%.2fx > \
       1.25x)"
      large small (large /. small)

(* Allocation pins for the simulator's hot primitives. Each measures the
   minor words of [n] repetitions after a warm-up (which files counters,
   health records and link names), so the figure is the steady-state cost
   of one repetition. Every simulated event, message and RPC pays these;
   the bounds leave headroom over the measured cost, and the previous
   implementation exceeded each of them. *)
let words_per n f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int n

let check_words name ~bound per =
  if per > bound then
    Alcotest.failf "%s: %.1f minor words per call > %.0f" name per bound

(* Minor words per echo round trip when [callers] fibers on one node call
   one server concurrently, [rounds] calls each, after a warm-up call. *)
let rpc_words_per_round_trip ~callers ~rounds =
  let eng = Sim.Engine.create () in
  let net = Net.Network.create eng in
  List.iter (Net.Network.add_node net) [ "client"; "server" ];
  let rpc = Net.Rpc.create net in
  let echo : (string, string) Net.Rpc.endpoint = Net.Rpc.endpoint "pin.echo" in
  Net.Rpc.serve rpc ~node:"server" echo (fun s -> s);
  let call () = ignore (Net.Rpc.call rpc ~from:"client" ~dst:"server" echo "hi") in
  Net.Network.spawn_on net "client" call;
  Sim.Engine.run eng;
  for _ = 1 to callers do
    Net.Network.spawn_on net "client" (fun () ->
        for _ = 1 to rounds do
          call ()
        done)
  done;
  words_per (callers * rounds) (fun () -> Sim.Engine.run eng)

let test_rpc_roundtrip_words () =
  check_words "Rpc.call echo round trip" ~bound:240.0
    (rpc_words_per_round_trip ~callers:1 ~rounds:200)

(* Defect: withdrawing a finished call's crash watch copied the part of
   the callee's watch list in front of it, so one round trip cost more
   the more calls to the same node were in flight (about 5x at 400
   concurrent callers). Watches now sit on an intrusive ring. *)
let test_rpc_cost_independent_of_concurrency () =
  let one = rpc_words_per_round_trip ~callers:1 ~rounds:400 in
  let many = rpc_words_per_round_trip ~callers:400 ~rounds:10 in
  if many > 1.1 *. one then
    Alcotest.failf
      "minor words per round trip: %.0f with 400 concurrent callers vs %.0f \
       with one (%.2fx > 1.1x)"
      many one (many /. one)

let test_spawn_words () =
  let eng = Sim.Engine.create () in
  let body () = () in
  Sim.Engine.spawn eng body;
  Sim.Engine.run eng;
  let n = 1000 in
  let per =
    words_per n (fun () ->
        for _ = 1 to n do
          Sim.Engine.spawn eng body
        done;
        Sim.Engine.run eng)
  in
  check_words "Engine.spawn of a fiber that never suspends" ~bound:24.0 per

let test_health_note_ok_words () =
  let h = Net.Health.create () in
  let n = 1000 in
  (* Boxed ahead of time, so the loop itself allocates nothing. *)
  let nows = List.init n (fun i -> float_of_int (i + 1)) in
  Net.Health.note_ok h ~dst:"d" ~now:0.0 ~latency:1.0;
  let per =
    words_per n (fun () ->
        List.iter (fun now -> Net.Health.note_ok h ~dst:"d" ~now ~latency:1.0) nows)
  in
  check_words "Health.note_ok" ~bound:8.0 per

let test_metrics_incr_words () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.incr m "pin.counter";
  let n = 10_000 in
  let per =
    words_per n (fun () ->
        for _ = 1 to n do
          Sim.Metrics.incr m "pin.counter"
        done)
  in
  (* [Gc.minor_words] boxes its own result: a few words in total, far
     below one word per call. *)
  check_words "Metrics.incr on an existing counter" ~bound:0.0 (Float.round per);
  check_int "counted" (n + 1) (Sim.Metrics.counter m "pin.counter")

let suite =
  let tc = Alcotest.test_case in
  [
    ( "regressions",
      [
        tc "multi-object action commits both" `Quick
          test_multi_object_action_commits_both;
        tc "orphan guard releases db locks" `Quick
          test_orphan_guard_releases_dead_clients_locks;
        tc "orphan guard releases server instance" `Quick
          test_orphan_guard_releases_server_instance;
        tc "concurrent independent binds" `Quick
          test_concurrent_independent_binds_both_succeed;
        tc "failed activation does not leak counters" `Quick
          test_failed_activation_does_not_leak_counters;
        tc "cleanup sees counters on removed servers" `Quick
          test_cleanup_sees_counters_on_removed_servers;
        tc "stale replica does not outrace live one" `Quick
          test_stale_replica_does_not_outrace_live_one;
        tc "split undo: no cross-lock resurrection" `Quick
          test_split_undo_no_resurrection;
        tc "pin: commit cost independent of world size" `Quick
          test_commit_cost_independent_of_world;
        tc "no crash watches left after commits" `Quick
          test_no_crash_watches_after_commits;
        tc "pin: rpc round trip allocation" `Quick test_rpc_roundtrip_words;
        tc "pin: rpc round trip cost independent of concurrency" `Quick
          test_rpc_cost_independent_of_concurrency;
        tc "pin: spawn allocation" `Quick test_spawn_words;
        tc "pin: health note_ok allocation" `Quick test_health_note_ok_words;
        tc "pin: metrics incr allocates nothing" `Quick test_metrics_incr_words;
      ] );
  ]
