(* Tests for the lock manager: compatibility matrix, blocking acquisition,
   promotion (the paper's try-semantics), exclude-write sharing, transfer
   to parent actions. *)

open Lockmgr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mode = Alcotest.testable Mode.pp Mode.equal

(* ------------------------------------------------------------------ *)
(* Mode *)

let test_mode_matrix () =
  let open Mode in
  check_bool "r/r" true (compatible Read Read);
  check_bool "r/xw" true (compatible Read Exclude_write);
  check_bool "xw/r" true (compatible Exclude_write Read);
  check_bool "xw/xw" false (compatible Exclude_write Exclude_write);
  check_bool "r/w" false (compatible Read Write);
  check_bool "w/r" false (compatible Write Read);
  check_bool "w/w" false (compatible Write Write);
  check_bool "w/xw" false (compatible Write Exclude_write);
  check_bool "xw/w" false (compatible Exclude_write Write)

let test_mode_strength_and_covers () =
  let open Mode in
  Alcotest.check mode "strongest" Write (strongest Read Write);
  Alcotest.check mode "strongest xw" Exclude_write (strongest Read Exclude_write);
  check_bool "write covers read" true (covers Write Read);
  check_bool "xw covers read" true (covers Exclude_write Read);
  check_bool "read does not cover write" false (covers Read Write)

(* ------------------------------------------------------------------ *)
(* Manager *)

let with_engine f =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  f eng mgr;
  Sim.Engine.run eng

let test_try_acquire_shared_reads () =
  with_engine (fun _eng mgr ->
      check_bool "r1" true (Manager.try_acquire mgr ~owner:"a1" ~mode:Mode.Read "k");
      check_bool "r2" true (Manager.try_acquire mgr ~owner:"a2" ~mode:Mode.Read "k");
      check_bool "w refused" false
        (Manager.try_acquire mgr ~owner:"a3" ~mode:Mode.Write "k");
      check_int "two holders" 2 (List.length (Manager.holders mgr "k")))

let test_write_excludes_all () =
  with_engine (fun _eng mgr ->
      check_bool "w" true (Manager.try_acquire mgr ~owner:"a1" ~mode:Mode.Write "k");
      check_bool "r refused" false
        (Manager.try_acquire mgr ~owner:"a2" ~mode:Mode.Read "k");
      check_bool "xw refused" false
        (Manager.try_acquire mgr ~owner:"a2" ~mode:Mode.Exclude_write "k"))

let test_exclude_write_shares_with_readers () =
  with_engine (fun _eng mgr ->
      check_bool "r1" true (Manager.try_acquire mgr ~owner:"r1" ~mode:Mode.Read "k");
      check_bool "r2" true (Manager.try_acquire mgr ~owner:"r2" ~mode:Mode.Read "k");
      check_bool "xw shares" true
        (Manager.try_acquire mgr ~owner:"w1" ~mode:Mode.Exclude_write "k");
      check_bool "second xw refused" false
        (Manager.try_acquire mgr ~owner:"w2" ~mode:Mode.Exclude_write "k");
      check_bool "new reader still ok" true
        (Manager.try_acquire mgr ~owner:"r3" ~mode:Mode.Read "k"))

let test_reentrant_acquire () =
  with_engine (fun _eng mgr ->
      check_bool "w" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write "k");
      check_bool "r under own w" true
        (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Read "k");
      Alcotest.(check (option mode))
        "still write" (Some Mode.Write)
        (Manager.holds mgr ~owner:"a" "k"))

let test_blocking_acquire_waits_for_release () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  let granted_at = ref nan in
  check_bool "w first" true (Manager.try_acquire mgr ~owner:"a1" ~mode:Mode.Write "k");
  Sim.Engine.spawn eng (fun () ->
      match Manager.acquire mgr ~owner:"a2" ~mode:Mode.Read "k" with
      | Ok () -> granted_at := Sim.Engine.now eng
      | Error `Timeout -> Alcotest.fail "unexpected timeout");
  Sim.Engine.schedule eng ~delay:5.0 (fun () -> Manager.release mgr ~owner:"a1" "k");
  Sim.Engine.run eng;
  Alcotest.(check (float 1e-9)) "granted at release" 5.0 !granted_at

let test_acquire_timeout () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "w" true (Manager.try_acquire mgr ~owner:"a1" ~mode:Mode.Write "k");
  let outcome = ref (Ok ()) in
  Sim.Engine.spawn eng (fun () ->
      outcome := Manager.acquire mgr ~owner:"a2" ~mode:Mode.Read ~timeout:3.0 "k");
  Sim.Engine.run eng;
  check_bool "timed out" true (!outcome = Error `Timeout)

let test_queue_fairness_no_writer_starvation () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  let order = ref [] in
  (* r1 holds; writer queues; later reader must NOT overtake the writer. *)
  check_bool "r1" true (Manager.try_acquire mgr ~owner:"r1" ~mode:Mode.Read "k");
  Sim.Engine.spawn eng (fun () ->
      match Manager.acquire mgr ~owner:"w" ~mode:Mode.Write "k" with
      | Ok () -> order := "w" :: !order
      | Error _ -> ());
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.sleep eng 1.0;
      match Manager.acquire mgr ~owner:"r2" ~mode:Mode.Read "k" with
      | Ok () -> order := "r2" :: !order
      | Error _ -> ());
  Sim.Engine.schedule eng ~delay:2.0 (fun () -> Manager.release mgr ~owner:"r1" "k");
  Sim.Engine.schedule eng ~delay:3.0 (fun () -> Manager.release mgr ~owner:"w" "k");
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "writer first" [ "r2"; "w" ] !order

let test_promote_read_to_write_sole_holder () =
  with_engine (fun _eng mgr ->
      check_bool "r" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Read "k");
      check_bool "promote" true (Manager.promote mgr ~owner:"a" ~to_mode:Mode.Write "k");
      Alcotest.(check (option mode))
        "now write" (Some Mode.Write)
        (Manager.holds mgr ~owner:"a" "k"))

let test_promote_refused_with_other_readers () =
  with_engine (fun _eng mgr ->
      check_bool "r1" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Read "k");
      check_bool "r2" true (Manager.try_acquire mgr ~owner:"b" ~mode:Mode.Read "k");
      check_bool "write promotion refused" false
        (Manager.promote mgr ~owner:"a" ~to_mode:Mode.Write "k");
      (* The paper's fix: exclude-write promotion shares with readers. *)
      check_bool "exclude-write promotion succeeds" true
        (Manager.promote mgr ~owner:"a" ~to_mode:Mode.Exclude_write "k"))

let test_promote_without_lock_fails () =
  with_engine (fun _eng mgr ->
      check_bool "no lock" false
        (Manager.promote mgr ~owner:"ghost" ~to_mode:Mode.Write "k"))

let test_release_all_and_waking () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "w k1" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write "k1");
  check_bool "w k2" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write "k2");
  let got = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      (match Manager.acquire mgr ~owner:"b" ~mode:Mode.Read "k1" with
      | Ok () -> incr got
      | Error _ -> ());
      match Manager.acquire mgr ~owner:"b" ~mode:Mode.Read "k2" with
      | Ok () -> incr got
      | Error _ -> ());
  Sim.Engine.schedule eng ~delay:1.0 (fun () -> Manager.release_all mgr ~owner:"a");
  Sim.Engine.run eng;
  check_int "both granted" 2 !got;
  Alcotest.(check (list string)) "a holds nothing" [] (Manager.locked_keys mgr ~owner:"a")

let test_transfer_to_parent () =
  with_engine (fun _eng mgr ->
      check_bool "child r" true
        (Manager.try_acquire mgr ~owner:"parent.1" ~mode:Mode.Read "k1");
      check_bool "child w" true
        (Manager.try_acquire mgr ~owner:"parent.1" ~mode:Mode.Write "k2");
      (* Parent already reads k2: transfer must merge to the strongest. *)
      check_bool "parent r" false
        (Manager.try_acquire mgr ~owner:"parent" ~mode:Mode.Read "k2");
      Manager.transfer_all mgr ~from_owner:"parent.1" ~to_owner:"parent";
      Alcotest.(check (option mode))
        "k1 read at parent" (Some Mode.Read)
        (Manager.holds mgr ~owner:"parent" "k1");
      Alcotest.(check (option mode))
        "k2 write at parent" (Some Mode.Write)
        (Manager.holds mgr ~owner:"parent" "k2");
      Alcotest.(check (option mode))
        "child gone" None
        (Manager.holds mgr ~owner:"parent.1" "k1"))

let test_waiting_count () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "w" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write "k");
  for i = 1 to 3 do
    Sim.Engine.spawn eng (fun () ->
        ignore (Manager.acquire mgr ~owner:(Printf.sprintf "b%d" i) ~mode:Mode.Read "k"))
  done;
  Sim.Engine.run ~until:1.0 eng;
  check_int "three waiting" 3 (Manager.waiting mgr "k");
  Manager.release mgr ~owner:"a" "k";
  Sim.Engine.run eng;
  check_int "none waiting" 0 (Manager.waiting mgr "k")

(* The table holds live entries only. *)

let test_release_reclaims_entries () =
  with_engine (fun _eng mgr ->
      for i = 1 to 50 do
        let key = Printf.sprintf "k%d" i in
        check_bool key true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write key)
      done;
      check_bool "shared" true (Manager.try_acquire mgr ~owner:"b" ~mode:Mode.Read "r");
      check_int "one entry per locked key" 51 (Manager.live_entries mgr);
      Manager.release mgr ~owner:"b" "r";
      check_int "release reclaims" 50 (Manager.live_entries mgr);
      Manager.release_all mgr ~owner:"a";
      check_int "release_all reclaims" 0 (Manager.live_entries mgr))

let test_sole_waiter_timeout_leaves_no_entry () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "w" true (Manager.try_acquire mgr ~owner:"a1" ~mode:Mode.Write "k");
  let outcome = ref (Ok ()) in
  Sim.Engine.spawn eng (fun () ->
      outcome := Manager.acquire mgr ~owner:"a2" ~mode:Mode.Read ~timeout:3.0 "k");
  Sim.Engine.schedule eng ~delay:5.0 (fun () -> Manager.release mgr ~owner:"a1" "k");
  Sim.Engine.run ~until:4.0 eng;
  check_bool "timed out" true (!outcome = Error `Timeout);
  check_int "no waiter left" 0 (Manager.waiting mgr "k");
  check_int "holder's entry only" 1 (Manager.live_entries mgr);
  Sim.Engine.run eng;
  check_int "reclaimed" 0 (Manager.live_entries mgr)

let test_failed_requests_file_nothing () =
  with_engine (fun _eng mgr ->
      check_bool "promote refused" false
        (Manager.promote mgr ~owner:"ghost" ~to_mode:Mode.Write "k");
      check_bool "available" true
        (Manager.available mgr ~owner:"ghost" ~mode:Mode.Write "k");
      check_int "nothing filed" 0 (Manager.live_entries mgr);
      check_bool "w" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write "k");
      check_bool "try refused" false
        (Manager.try_acquire mgr ~owner:"b" ~mode:Mode.Read "k");
      check_bool "promote without a lock refused" false
        (Manager.promote mgr ~owner:"b" ~to_mode:Mode.Write "k");
      check_int "still one entry" 1 (Manager.live_entries mgr))

(* A waiter suspended on an entry that a crash ([release_everything])
   detached must not, when it times out, reclaim the fresh entry filed
   for the same key after the crash. *)
let test_detached_waiter_spares_fresh_entry () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "w" true (Manager.try_acquire mgr ~owner:"a1" ~mode:Mode.Write "k");
  let outcome = ref (Ok ()) in
  Sim.Engine.spawn eng (fun () ->
      outcome := Manager.acquire mgr ~owner:"a2" ~mode:Mode.Read ~timeout:5.0 "k");
  Sim.Engine.schedule eng ~delay:1.0 (fun () -> Manager.release_everything mgr);
  Sim.Engine.schedule eng ~delay:2.0 (fun () ->
      check_bool "fresh grant" true
        (Manager.try_acquire mgr ~owner:"a3" ~mode:Mode.Write "k"));
  Sim.Engine.run eng;
  check_bool "detached waiter timed out" true (!outcome = Error `Timeout);
  Alcotest.(check (list string))
    "fresh holder kept" [ "a3" ]
    (List.map fst (Manager.holders mgr "k"));
  check_int "fresh entry kept" 1 (Manager.live_entries mgr);
  check_bool "fresh lock still excludes" false
    (Manager.try_acquire mgr ~owner:"a4" ~mode:Mode.Read "k")

(* A release that lands between a waiter's timeout firing and the
   waiter's fiber resuming grants the waiter a lock it is about to be told
   it did not get. The timed-out acquire must give that grant back. The
   helper fiber runs after the waiter has armed its timer, so the release
   is queued behind the timer at the same instant, and the waiter's
   resumption, a fresh zero-delay event, comes after both. *)
let test_timeout_voids_late_grant () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "w" true (Manager.try_acquire mgr ~owner:"a1" ~mode:Mode.Write "k");
  let outcome = ref (Ok ()) in
  Sim.Engine.spawn eng (fun () ->
      outcome := Manager.acquire mgr ~owner:"a2" ~mode:Mode.Read ~timeout:5.0 "k");
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.schedule eng ~delay:5.0 (fun () ->
          Manager.release mgr ~owner:"a1" "k"));
  Sim.Engine.run eng;
  check_bool "timed out" true (!outcome = Error `Timeout);
  Alcotest.(check (list string))
    "no holder left" [] (List.map fst (Manager.holders mgr "k"));
  check_int "entry reclaimed" 0 (Manager.live_entries mgr);
  check_bool "lock free" true
    (Manager.try_acquire mgr ~owner:"a3" ~mode:Mode.Write "k")

(* ------------------------------------------------------------------ *)
(* Properties *)

let arb_mode = QCheck.oneofl [ Mode.Read; Mode.Write; Mode.Exclude_write ]

let prop_compat_symmetric =
  QCheck.Test.make ~name:"compatibility is symmetric" ~count:100
    QCheck.(pair arb_mode arb_mode)
    (fun (a, b) -> Mode.compatible a b = Mode.compatible b a)

let prop_holders_pairwise_compatible =
  (* Whatever sequence of try_acquires is issued, the resulting holder set
     is pairwise compatible (ignoring same-owner merges). *)
  QCheck.Test.make ~name:"holders always pairwise compatible" ~count:200
    QCheck.(small_list (pair (int_range 0 4) arb_mode))
    (fun requests ->
      let eng = Sim.Engine.create () in
      let mgr = Manager.create eng in
      List.iter
        (fun (o, m) ->
          ignore
            (Manager.try_acquire mgr ~owner:(Printf.sprintf "a%d" o) ~mode:m "k"))
        requests;
      let holders = Manager.holders mgr "k" in
      List.for_all
        (fun (o1, m1) ->
          List.for_all
            (fun (o2, m2) -> String.equal o1 o2 || Mode.compatible m1 m2)
            holders)
        holders)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "lockmgr.mode",
      [
        tc "matrix" `Quick test_mode_matrix;
        tc "strength and covers" `Quick test_mode_strength_and_covers;
        Test_util.qcheck prop_compat_symmetric;
      ] );
    ( "lockmgr.manager",
      [
        tc "shared reads" `Quick test_try_acquire_shared_reads;
        tc "write excludes all" `Quick test_write_excludes_all;
        tc "exclude-write shares with readers" `Quick
          test_exclude_write_shares_with_readers;
        tc "reentrant" `Quick test_reentrant_acquire;
        tc "blocking acquire" `Quick test_blocking_acquire_waits_for_release;
        tc "acquire timeout" `Quick test_acquire_timeout;
        tc "queue fairness" `Quick test_queue_fairness_no_writer_starvation;
        tc "promote sole holder" `Quick test_promote_read_to_write_sole_holder;
        tc "promote refused with readers" `Quick test_promote_refused_with_other_readers;
        tc "promote without lock" `Quick test_promote_without_lock_fails;
        tc "release all wakes" `Quick test_release_all_and_waking;
        tc "transfer to parent" `Quick test_transfer_to_parent;
        tc "waiting count" `Quick test_waiting_count;
        tc "release reclaims entries" `Quick test_release_reclaims_entries;
        tc "sole waiter timeout leaves no entry" `Quick
          test_sole_waiter_timeout_leaves_no_entry;
        tc "failed requests file nothing" `Quick test_failed_requests_file_nothing;
        tc "detached waiter spares fresh entry" `Quick
          test_detached_waiter_spares_fresh_entry;
        tc "timeout voids late grant" `Quick test_timeout_voids_late_grant;
        Test_util.qcheck prop_holders_pairwise_compatible;
      ] );
  ]
