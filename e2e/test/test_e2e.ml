(* Tests of the e2e benchmark's own machinery: the input generator, the
   percentile helper, episode determinism and the layer sampler. *)

open E2e_bench

let zipf_matches_target () =
  let n = 50 and draws = 200_000 in
  let z = Gen.Zipf.create ~n ~s:0.99 in
  let rng = Sim.Rng.create 7L in
  let hits = Array.make n 0 in
  for _ = 1 to draws do
    let k = Gen.Zipf.sample z rng in
    hits.(k) <- hits.(k) + 1
  done;
  for k = 0 to n - 1 do
    let expected = Gen.Zipf.probability z k *. float_of_int draws in
    (* Four standard deviations of a binomial count. *)
    let slack = 4.0 *. sqrt expected in
    if Float.abs (float_of_int hits.(k) -. expected) > slack then
      Alcotest.failf "rank %d: %d draws, expected %.0f +- %.0f" k hits.(k)
        expected slack
  done;
  (* The target itself: rank k has weight 1/(k+1)^s. *)
  let ratio = Gen.Zipf.probability z 0 /. Gen.Zipf.probability z 9 in
  Alcotest.(check (float 1e-9)) "p(0)/p(9)" (10.0 ** 0.99) ratio

let zipf_zero_is_uniform () =
  let z = Gen.Zipf.create ~n:8 ~s:0.0 in
  for k = 0 to 7 do
    Alcotest.(check (float 1e-12)) "uniform" 0.125 (Gen.Zipf.probability z k)
  done

let samples n = Array.init n (fun i -> float_of_int (n - i))

let percentile_nearest_rank () =
  let check msg expected got =
    Alcotest.(check (option (float 0.0))) msg expected got
  in
  check "p50 of 1..100" (Some 50.0) (Stats.percentile (samples 100) 50.0);
  check "p90 of 1..100" (Some 90.0) (Stats.percentile (samples 100) 90.0);
  check "p99 of 1..1000" (Some 990.0) (Stats.percentile (samples 1000) 99.0);
  check "p50 of 1..20" (Some 10.0) (Stats.percentile (samples 20) 50.0)

let percentile_refuses_thin_tail () =
  let refused msg xs p =
    Alcotest.(check (option (float 0.0))) msg None (Stats.percentile xs p)
  in
  refused "p99 of 999" (samples 999) 99.0;
  refused "p99 of 100" (samples 100) 99.0;
  refused "p50 of 19" (samples 19) 50.0;
  refused "empty" [||] 50.0

(* A small world with every ingredient of the real ones: Zipf, kvmaps,
   writes, and in the second one the crash schedule. *)
let small ~churn =
  {
    World.name = "small";
    objects = 40;
    kv_every = 5;
    clients = 9;
    zipf_s = 0.99;
    write_share = 0.5;
    churn;
    horizon = (if churn then 260.0 else 80.0);
  }

let same_episode ~churn () =
  let wl = small ~churn in
  let run () = World.run_episode ~traced:true wl ~seed:11 ~index:0 in
  let a = run () in
  let b = run () in
  Alcotest.(check (list string)) "outcome check" [] a.violations;
  Alcotest.(check bool) "work done" true (a.commits > 20);
  Alcotest.(check int) "commits" a.commits b.commits;
  Alcotest.(check int) "actions" a.actions b.actions;
  Alcotest.(check int) "events" a.events b.events;
  Alcotest.(check int) "window commits" a.window_commits b.window_commits;
  Alcotest.(check (array (float 0.0))) "latencies" a.latencies b.latencies;
  Alcotest.(check (list (pair string int))) "counters" a.counters b.counters;
  Alcotest.(check (list (float 0.0))) "catch-ups" a.catchups b.catchups;
  Alcotest.(check int) "spans" (Array.length a.spans) (Array.length b.spans);
  Alcotest.(check (float 0.0))
    "minor words per commit"
    (a.minor_words /. float_of_int a.commits)
    (b.minor_words /. float_of_int b.commits)

let churn_recovers () =
  let o = World.run_episode (small ~churn:true) ~seed:3 ~index:0 in
  Alcotest.(check (list string)) "outcome check" [] o.violations;
  Alcotest.(check bool) "stores crashed and recovered" true
    (List.assoc_opt "net.recoveries" o.counters <> None)

(* Pure engine work: fibers that only sleep and yield. *)
let engine_credited_to_sim () =
  Sampler.reset ();
  Sampler.start ();
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:Sampler.stop (fun () ->
      while Unix.gettimeofday () -. t0 < 0.6 do
        let eng = Sim.Engine.create () in
        for _ = 1 to 200 do
          Sim.Engine.spawn eng (fun () ->
              for _ = 1 to 50 do
                Sim.Engine.sleep eng 1.0;
                Sim.Engine.yield eng
              done)
        done;
        Sim.Engine.run eng
      done);
  let total = Sampler.total () in
  let sim = List.assoc "sim" (Sampler.samples ()) in
  if total < 20 then Alcotest.failf "only %d samples" total;
  if float_of_int sim < 0.9 *. float_of_int total then
    Alcotest.failf "sim credited %d of %d samples" sim total

let () =
  Alcotest.run "e2e"
    [
      ( "gen",
        [
          Alcotest.test_case "zipf matches target" `Quick zipf_matches_target;
          Alcotest.test_case "zipf s=0 is uniform" `Quick zipf_zero_is_uniform;
        ] );
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick percentile_nearest_rank;
          Alcotest.test_case "refuses thin tail" `Quick
            percentile_refuses_thin_tail;
        ] );
      ( "episode",
        [
          Alcotest.test_case "same seed, same figures" `Quick
            (same_episode ~churn:false);
          Alcotest.test_case "same seed, same figures under churn" `Quick
            (same_episode ~churn:true);
          Alcotest.test_case "churn passes the outcome check" `Quick
            churn_recovers;
        ] );
      ( "sampler",
        [ Alcotest.test_case "engine credited to sim" `Quick engine_credited_to_sim ]
      );
    ]
