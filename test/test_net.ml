(* Tests for the network substrate: nodes, crash/recovery, RPC failure
   semantics, multicast ordering and atomicity. *)

open Sim
open Net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let make_world ?seed () =
  let eng = Engine.create ?seed () in
  let net = Network.create eng in
  let rpc = Rpc.create net in
  (eng, net, rpc)

let rpc_error = Alcotest.testable Rpc.pp_error ( = )

(* ------------------------------------------------------------------ *)
(* Network basics *)

let test_add_and_list_nodes () =
  let _, net, _ = make_world () in
  List.iter (Network.add_node net) [ "b"; "a"; "c" ];
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (Network.node_ids net)

let test_duplicate_node_rejected () =
  let _, net, _ = make_world () in
  Network.add_node net "a";
  match Network.add_node net "a" with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_unknown_node_raises () =
  let _, net, _ = make_world () in
  match Network.is_up net "ghost" with
  | _ -> Alcotest.fail "expected Unknown_node"
  | exception Network.Unknown_node "ghost" -> ()

let test_crash_recover_incarnation () =
  let _, net, _ = make_world () in
  Network.add_node net "a";
  check_int "initial inc" 0 (Network.incarnation net "a");
  Network.crash net "a";
  check_bool "down" false (Network.is_up net "a");
  Network.crash net "a" (* idempotent *);
  Network.recover net "a";
  check_bool "up" true (Network.is_up net "a");
  check_int "inc bumped" 1 (Network.incarnation net "a")

let test_crash_hooks_fire () =
  let eng, net, _ = make_world () in
  Network.add_node net "a";
  let crashed = ref 0 and recovered = ref 0 in
  Network.on_crash net "a" (fun () -> incr crashed);
  Network.on_recover net "a" (fun () -> incr recovered);
  Network.crash net "a";
  Network.recover net "a";
  Engine.run eng;
  check_int "crash hook" 1 !crashed;
  check_int "recover hook" 1 !recovered

let test_watch_ring () =
  let eng, net, _ = make_world () in
  Network.add_node net "b";
  let fired = ref [] in
  let watch tag = Network.watch_crash net "b" (fun () -> fired := tag :: !fired) in
  let w1 = watch 1 in
  let w2 = watch 2 in
  let _w3 = watch 3 in
  check_int "three held" 3 (Network.watch_count net "b");
  Network.unwatch w2;
  Network.unwatch w2;
  check_int "middle withdrawn, twice harmlessly" 2 (Network.watch_count net "b");
  Network.crash net "b";
  check_int "crash empties the ring" 0 (Network.watch_count net "b");
  Network.unwatch w1;
  Engine.run eng;
  Alcotest.(check (list int)) "newest first, withdrawn never" [ 3; 1 ]
    (List.rev !fired);
  (* A watch on a node already down fires once and holds no cell. *)
  let w4 = watch 4 in
  check_int "down node holds nothing" 0 (Network.watch_count net "b");
  Network.unwatch w4;
  Engine.run eng;
  Alcotest.(check (list int)) "down-node watch fired" [ 3; 1; 4 ]
    (List.rev !fired)

let test_crash_kills_node_fibers () =
  let eng, net, _ = make_world () in
  Network.add_node net "a";
  let progress = ref 0 in
  Network.spawn_on net "a" (fun () ->
      incr progress;
      Engine.sleep eng 10.0;
      incr progress);
  Engine.schedule eng ~delay:5.0 (fun () -> Network.crash net "a");
  Engine.run eng;
  check_int "fiber died at crash" 1 !progress

let test_message_to_down_node_dropped () =
  let eng, net, _ = make_world () in
  Network.add_node net "a";
  Network.add_node net "b";
  Network.crash net "b";
  let delivered = ref false in
  Network.send net ~src:"a" ~dst:"b" (fun () -> delivered := true);
  Engine.run eng;
  check_bool "dropped" false !delivered

let test_partition_blocks_delivery () =
  let eng, net, _ = make_world () in
  Network.add_node net "a";
  Network.add_node net "b";
  Network.set_partitioned net "a" "b" true;
  let delivered = ref false in
  Network.send net ~src:"a" ~dst:"b" (fun () -> delivered := true);
  Engine.run eng;
  check_bool "blocked" false !delivered;
  Network.set_partitioned net "a" "b" false;
  Network.send net ~src:"a" ~dst:"b" (fun () -> delivered := true);
  Engine.run eng;
  check_bool "healed" true !delivered

let test_fifo_preserves_order () =
  let eng, net, _ = make_world ~seed:99L () in
  Network.add_node net "a";
  Network.add_node net "b";
  let got = ref [] in
  (* Many sends back-to-back: plain send may reorder under random latency,
     send_fifo must not. *)
  for i = 1 to 20 do
    Network.send_fifo net ~src:"a" ~dst:"b" (fun () -> got := i :: !got)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "in order" (List.init 20 (fun i -> 20 - i)) !got

(* ------------------------------------------------------------------ *)
(* RPC *)

let echo : (string, string) Rpc.endpoint = Rpc.endpoint "test.echo"

let test_rpc_roundtrip () =
  let eng, net, rpc = make_world () in
  Network.add_node net "client";
  Network.add_node net "server";
  Rpc.serve rpc ~node:"server" echo (fun s -> s ^ "!");
  let got = ref "" in
  Network.spawn_on net "client" (fun () ->
      match Rpc.call rpc ~from:"client" ~dst:"server" echo "hi" with
      | Ok s -> got := s
      | Error e -> got := Rpc.error_to_string e);
  Engine.run eng;
  check_string "reply" "hi!" !got

let test_rpc_unreachable_when_down () =
  let eng, net, rpc = make_world () in
  Network.add_node net "client";
  Network.add_node net "server";
  Rpc.serve rpc ~node:"server" echo (fun s -> s);
  Network.crash net "server";
  let got = ref (Ok "") in
  Network.spawn_on net "client" (fun () ->
      got := Rpc.call rpc ~from:"client" ~dst:"server" echo "hi");
  Engine.run eng;
  Alcotest.(check (result string rpc_error))
    "unreachable" (Error Rpc.Unreachable) !got

let test_rpc_crash_mid_call () =
  let eng, net, rpc = make_world () in
  Network.add_node net "client";
  Network.add_node net "server";
  (* Handler sleeps long; server crashes while handling. *)
  Rpc.serve rpc ~node:"server" echo (fun s ->
      Engine.sleep eng 100.0;
      s);
  let got = ref (Ok "") in
  Network.spawn_on net "client" (fun () ->
      got := Rpc.call rpc ~from:"client" ~dst:"server" echo "hi");
  Engine.schedule eng ~delay:10.0 (fun () -> Network.crash net "server");
  Engine.run eng;
  Alcotest.(check (result string rpc_error)) "crashed" (Error Rpc.Crashed) !got

let test_rpc_no_service () =
  let eng, net, rpc = make_world () in
  Network.add_node net "client";
  Network.add_node net "server";
  let got = ref (Ok "") in
  Network.spawn_on net "client" (fun () ->
      got := Rpc.call rpc ~from:"client" ~dst:"server" echo "hi");
  Engine.run eng;
  Alcotest.(check (result string rpc_error))
    "no service" (Error Rpc.No_service) !got

let test_rpc_withdraw () =
  let eng, net, rpc = make_world () in
  Network.add_node net "client";
  Network.add_node net "server";
  Rpc.serve rpc ~node:"server" echo (fun s -> s);
  check_bool "serving" true (Rpc.serving rpc ~node:"server" echo);
  Rpc.withdraw rpc ~node:"server" echo;
  check_bool "withdrawn" false (Rpc.serving rpc ~node:"server" echo);
  let got = ref (Ok "") in
  Network.spawn_on net "client" (fun () ->
      got := Rpc.call rpc ~from:"client" ~dst:"server" echo "hi");
  Engine.run eng;
  Alcotest.(check (result string rpc_error))
    "no service after withdraw" (Error Rpc.No_service) !got

let test_rpc_timeout () =
  let eng, net, rpc = make_world () in
  Network.add_node net "client";
  Network.add_node net "server";
  Rpc.serve rpc ~node:"server" echo (fun s ->
      Engine.sleep eng 100.0;
      s);
  let got = ref (Ok "") in
  Network.spawn_on net "client" (fun () ->
      got := Rpc.call rpc ~from:"client" ~dst:"server" ~timeout:5.0 echo "hi");
  Engine.run eng;
  Alcotest.(check (result string rpc_error)) "timeout" (Error Rpc.Timed_out) !got

let test_rpc_nested_call_in_handler () =
  let eng, net, rpc = make_world () in
  List.iter (Network.add_node net) [ "client"; "front"; "back" ];
  let upper : (string, string) Rpc.endpoint = Rpc.endpoint "test.upper" in
  Rpc.serve rpc ~node:"back" upper (fun s -> String.uppercase_ascii s);
  Rpc.serve rpc ~node:"front" echo (fun s ->
      match Rpc.call rpc ~from:"front" ~dst:"back" upper s with
      | Ok u -> u ^ "!"
      | Error e -> "error: " ^ Rpc.error_to_string e);
  let got = ref "" in
  Network.spawn_on net "client" (fun () ->
      match Rpc.call rpc ~from:"client" ~dst:"front" echo "hi" with
      | Ok s -> got := s
      | Error e -> got := Rpc.error_to_string e);
  Engine.run eng;
  check_string "chained" "HI!" !got

(* The reply to a caller that crashed after sending runs nowhere: the
   delivery is dropped at the dead node, no fiber is left behind, and a
   recovered incarnation never sees the old call resume. *)
let test_rpc_caller_crash_drops_reply () =
  let run ~recover =
    let eng, net, rpc = make_world () in
    Network.add_node net "client";
    Network.add_node net "server";
    let handled = ref false and resumed = ref false in
    Rpc.serve rpc ~node:"server" echo (fun s ->
        handled := true;
        Engine.sleep eng 5.0;
        s);
    Network.spawn_on net "client" (fun () ->
        ignore (Rpc.call rpc ~from:"client" ~dst:"server" echo "hi");
        resumed := true);
    Engine.schedule eng ~delay:3.0 (fun () -> Network.crash net "client");
    if recover then
      Engine.schedule eng ~delay:4.0 (fun () -> Network.recover net "client");
    Engine.run eng;
    check_bool "server handled" true !handled;
    check_bool "caller never resumed" false !resumed;
    Alcotest.(check (list string)) "no fiber left" [] (Engine.leaked_fibers eng);
    Metrics.counter (Network.metrics net) "net.dropped"
  in
  check_int "reply dropped at the dead caller" 1 (run ~recover:false);
  (* Delivered to the new incarnation: the completion withdraws the
     call's crash watch and its resumption of the dead fiber is void. *)
  check_int "reply delivered to the recovered node" 0 (run ~recover:true)

let test_notify_one_way () =
  let eng, net, rpc = make_world () in
  Network.add_node net "a";
  Network.add_node net "b";
  let ping : (int, unit) Rpc.endpoint = Rpc.endpoint "test.ping" in
  let got = ref 0 in
  Rpc.serve rpc ~node:"b" ping (fun n -> got := n);
  Network.spawn_on net "a" (fun () -> Rpc.notify rpc ~from:"a" ~dst:"b" ping 7);
  Engine.run eng;
  check_int "notified" 7 !got

(* ------------------------------------------------------------------ *)
(* Multicast *)

let test_unreliable_full_delivery_when_healthy () =
  let eng, net, rpc = make_world () in
  List.iter (Network.add_node net) [ "s"; "m1"; "m2"; "m3" ];
  let mc = Multicast.create rpc in
  let ch : string Multicast.channel = Multicast.channel "grp" in
  let got = ref [] in
  List.iter
    (fun m ->
      Multicast.listen mc ~node:m ch (fun ~seq:_ msg -> got := (m, msg) :: !got))
    [ "m1"; "m2"; "m3" ];
  Network.spawn_on net "s" (fun () ->
      Multicast.cast_unreliable mc ~from:"s" ~members:[ "m1"; "m2"; "m3" ] ch "x");
  Engine.run eng;
  check_int "all members" 3 (List.length !got)

let test_unreliable_partial_delivery_on_sender_crash () =
  (* The Figure-1 scenario: sender crashes mid-cast, so only a prefix of
     the group receives the message. *)
  let eng, net, rpc = make_world () in
  List.iter (Network.add_node net) [ "s"; "m1"; "m2" ];
  let mc = Multicast.create rpc in
  let ch : string Multicast.channel = Multicast.channel "grp" in
  let got = ref [] in
  List.iter
    (fun m -> Multicast.listen mc ~node:m ch (fun ~seq:_ _ -> got := m :: !got))
    [ "m1"; "m2" ];
  Network.spawn_on net "s" (fun () ->
      Multicast.cast_unreliable mc ~from:"s" ~members:[ "m1"; "m2" ] ch "x");
  (* Crash between the two sends: after the first inter-send gap begins. *)
  Engine.schedule eng ~delay:0.005 (fun () -> Network.crash net "s");
  Engine.run eng;
  Alcotest.(check (list string)) "only first member" [ "m1" ] !got

let test_atomic_all_or_nothing_on_sender_crash () =
  (* With the sequencer, a sender crash before the transfer completes means
     nobody delivers; after, everybody does. Either way: never a prefix. *)
  let trials = 30 in
  let outcomes = ref [] in
  for seed = 1 to trials do
    let eng, net, rpc = make_world ~seed:(Int64.of_int seed) () in
    List.iter (Network.add_node net) [ "s"; "seq"; "m1"; "m2" ];
    let mc = Multicast.create rpc in
    Multicast.enable_sequencer mc ~node:"seq";
    let ch : string Multicast.channel = Multicast.channel "grp" in
    let got = ref 0 in
    List.iter
      (fun m -> Multicast.listen mc ~node:m ch (fun ~seq:_ _ -> incr got))
      [ "m1"; "m2" ];
    Network.spawn_on net "s" (fun () ->
        ignore
          (Multicast.cast_atomic mc ~from:"s" ~sequencer:"seq"
             ~members:[ "m1"; "m2" ] ch "x"));
    (* Crash the sender at a random early instant. *)
    Engine.schedule eng
      ~delay:(0.2 +. (0.05 *. float_of_int seed))
      (fun () -> Network.crash net "s");
    Engine.run eng;
    outcomes := !got :: !outcomes
  done;
  List.iter
    (fun n -> check_bool "all or nothing" true (n = 0 || n = 2))
    !outcomes

let test_atomic_total_order () =
  let eng, net, rpc = make_world ~seed:1234L () in
  List.iter (Network.add_node net) [ "s1"; "s2"; "seq"; "m1"; "m2" ];
  let mc = Multicast.create rpc in
  Multicast.enable_sequencer mc ~node:"seq";
  let ch : int Multicast.channel = Multicast.channel "grp" in
  let got1 = ref [] and got2 = ref [] in
  Multicast.listen mc ~node:"m1" ch (fun ~seq:_ v -> got1 := v :: !got1);
  Multicast.listen mc ~node:"m2" ch (fun ~seq:_ v -> got2 := v :: !got2);
  (* Two senders race many casts. *)
  Network.spawn_on net "s1" (fun () ->
      for i = 1 to 10 do
        ignore
          (Multicast.cast_atomic mc ~from:"s1" ~sequencer:"seq"
             ~members:[ "m1"; "m2" ] ch i)
      done);
  Network.spawn_on net "s2" (fun () ->
      for i = 101 to 110 do
        ignore
          (Multicast.cast_atomic mc ~from:"s2" ~sequencer:"seq"
             ~members:[ "m1"; "m2" ] ch i)
      done);
  Engine.run eng;
  check_int "m1 got all" 20 (List.length !got1);
  Alcotest.(check (list int)) "same order at both members" !got1 !got2

let test_atomic_sequencer_down () =
  let eng, net, rpc = make_world () in
  List.iter (Network.add_node net) [ "s"; "seq"; "m1" ];
  let mc = Multicast.create rpc in
  Multicast.enable_sequencer mc ~node:"seq";
  Network.crash net "seq";
  let ch : string Multicast.channel = Multicast.channel "grp" in
  let got = ref (Ok 0) in
  Network.spawn_on net "s" (fun () ->
      got :=
        Multicast.cast_atomic mc ~from:"s" ~sequencer:"seq" ~members:[ "m1" ]
          ch "x");
  Engine.run eng;
  Alcotest.(check (result int rpc_error))
    "sequencer down" (Error Rpc.Unreachable) !got

(* ------------------------------------------------------------------ *)
(* Fault injection *)

let test_crash_for_window () =
  let eng, net, _ = make_world () in
  Network.add_node net "a";
  Fault.crash_for net ~at:10.0 ~duration:5.0 "a";
  let up_at t =
    Engine.run ~until:t eng;
    Network.is_up net "a"
  in
  check_bool "up before" true (up_at 9.0);
  check_bool "down during" false (up_at 12.0);
  check_bool "up after" true (up_at 20.0)

let test_churn_alternates () =
  let eng, net, _ = make_world ~seed:5L () in
  Network.add_node net "a";
  let rng = Rng.create 17L in
  Fault.churn net ~rng ~mttf:10.0 ~mttr:2.0 ~until:500.0 "a";
  Engine.run ~until:1000.0 eng;
  let crashes = Metrics.counter (Network.metrics net) "net.crashes" in
  let recoveries = Metrics.counter (Network.metrics net) "net.recoveries" in
  check_bool "several crashes" true (crashes > 5);
  check_bool "balanced" true (abs (crashes - recoveries) <= 1)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "net.network",
      [
        tc "add and list" `Quick test_add_and_list_nodes;
        tc "duplicate rejected" `Quick test_duplicate_node_rejected;
        tc "unknown raises" `Quick test_unknown_node_raises;
        tc "crash recover incarnation" `Quick test_crash_recover_incarnation;
        tc "hooks fire" `Quick test_crash_hooks_fire;
        tc "crash kills fibers" `Quick test_crash_kills_node_fibers;
        tc "crash watch ring" `Quick test_watch_ring;
        tc "message to down node dropped" `Quick test_message_to_down_node_dropped;
        tc "partition blocks" `Quick test_partition_blocks_delivery;
        tc "fifo order" `Quick test_fifo_preserves_order;
      ] );
    ( "net.rpc",
      [
        tc "roundtrip" `Quick test_rpc_roundtrip;
        tc "unreachable when down" `Quick test_rpc_unreachable_when_down;
        tc "crash mid call" `Quick test_rpc_crash_mid_call;
        tc "no service" `Quick test_rpc_no_service;
        tc "withdraw" `Quick test_rpc_withdraw;
        tc "timeout" `Quick test_rpc_timeout;
        tc "nested call in handler" `Quick test_rpc_nested_call_in_handler;
        tc "caller crash drops reply" `Quick test_rpc_caller_crash_drops_reply;
        tc "notify one way" `Quick test_notify_one_way;
      ] );
    ( "net.multicast",
      [
        tc "unreliable full delivery" `Quick test_unreliable_full_delivery_when_healthy;
        tc "unreliable partial on sender crash" `Quick
          test_unreliable_partial_delivery_on_sender_crash;
        tc "atomic all or nothing" `Quick test_atomic_all_or_nothing_on_sender_crash;
        tc "atomic total order" `Quick test_atomic_total_order;
        tc "atomic sequencer down" `Quick test_atomic_sequencer_down;
      ] );
    ( "net.fault",
      [
        tc "crash for window" `Quick test_crash_for_window;
        tc "churn alternates" `Quick test_churn_alternates;
      ] );
  ]
