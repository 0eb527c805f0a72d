(* A benchmark run: episodes of one workload until the time is up, then
   the metrics. An untraced run reports the end-to-end metrics; a traced
   run pairs every traced episode with an untraced one of the same seed
   and reports the per-layer metrics and the tracing overhead. *)

open World

type metric = { name : string; value : float; unit : string; note : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  violations : string list;
}

let metric ?(note = "") name unit value = { name; value; unit; note }

(* A run keeps going past its time until it has this many committed
   actions, so that the action p99 always has ten samples beyond it. *)
let min_commits = 2_000

let commits os = List.fold_left (fun n o -> n + o.commits) 0 os
let actions os = List.fold_left (fun n o -> n + o.actions) 0 os

let counter os name =
  List.fold_left
    (fun n o -> n + Option.value ~default:0 (List.assoc_opt name o.counters))
    0 os

let counter_prefix os prefix =
  List.fold_left
    (fun n o ->
      List.fold_left
        (fun n (k, v) -> if String.starts_with ~prefix k then n + v else n)
        n o.counters)
    0 os

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fsum f os = List.fold_left (fun s o -> s +. f o) 0.0 os
let rate o = float_of_int o.commits /. o.run_s

(* A refused percentile is reported as 0 beside its sample count. *)
let pct samples p =
  Option.value ~default:0.0 (Stats.percentile samples p)

let pooled f os = Array.concat (List.map f os)

let outcome_summary os =
  let violations = List.concat_map (fun (o : outcome) -> o.violations) os in
  ( violations,
    List.fold_left (fun n o -> n + o.requests) 0 os,
    List.fold_left (fun n o -> n + o.failed_requests) 0 os )

(* Run episodes [0, 1, ...] until [seconds] have passed and [min_commits]
   committed actions are in. *)
let episodes ~seconds episode =
  let t0 = Unix.gettimeofday () in
  let rec go i acc =
    let acc = episode i :: acc in
    if Unix.gettimeofday () -. t0 < seconds || commits acc < min_commits then
      go (i + 1) acc
    else List.rev acc
  in
  go 0 []

let untraced wl ~seed ~seconds =
  let os =
    episodes ~seconds (fun index -> run_episode wl ~seed ~index)
  in
  let lat = pooled (fun o -> o.latencies) os in
  let n = string_of_int (Array.length lat) ^ " committed actions" in
  let eps = string_of_int (List.length os) ^ " episodes" in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let violations, attempted, failed = outcome_summary os in
  {
    correct = violations = [];
    attempted;
    failed;
    violations;
    metrics =
      [
        metric "action_p50" "tu" (pct lat 50.0) ~note:n;
        metric "action_p99" "tu" (pct lat 99.0) ~note:n;
        metric "sim_throughput" "commits/ktu"
          (1000.0
          *. float_of_int (List.fold_left (fun n o -> n + o.window_commits) 0 os)
          /. (wl.horizon *. float_of_int (List.length os)))
          ~note:eps;
        metric "msgs_per_action" "msgs"
          (per (counter os "net.msgs") (actions os))
          ~note:(string_of_int (actions os) ^ " actions");
        metric "minor_words_per_commit" "words"
          (fsum (fun o -> o.minor_words) os /. float_of_int (commits os))
          ~note:n;
        metric "heap_top_mb" "MB"
          (float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0);
        metric "setup_s" "s"
          (Stats.median (List.map (fun o -> o.setup_s) os))
          ~note:("median of " ^ eps);
      ];
  }

let out_dir = Filename.concat "e2e" "_out"

let traced wl ~seed ~seconds =
  Gcread.start ();
  let minor = ref 0 and major = ref 0 and pairs = ref [] and plain_rates = ref [] in
  let wrap f =
    let before = Gc.quick_stat () in
    Sampler.start ();
    Fun.protect
      (fun () -> Gcread.measure f)
      ~finally:(fun () ->
        Sampler.stop ();
        let after = Gc.quick_stat () in
        minor := !minor + after.Gc.minor_collections - before.Gc.minor_collections;
        major := !major + after.Gc.major_collections - before.Gc.major_collections)
  in
  let os =
    episodes ~seconds (fun index ->
        let plain = run_episode wl ~seed ~index in
        let o =
          run_episode ~traced:true ~wrap ~between:Gcread.poll wl ~seed ~index
        in
        pairs := (rate plain /. rate o) :: !pairs;
        plain_rates := rate plain :: !plain_rates;
        { o with violations = plain.violations @ o.violations })
  in
  let sampled_s = fsum (fun o -> o.run_s) os in
  let spans = pooled (fun o -> o.spans) os in
  (match os with
  | first :: _ ->
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      Spans.export ~limit:5_000 first.spans
        (Filename.concat out_dir
           (Printf.sprintf "%s-seed%d.trace.json" wl.name seed))
  | [] -> ());
  let acts = actions os and cms = commits os in
  let eps = List.length os in
  let per_action name = per (counter os name) acts in
  let per_commit name = per (counter os name) cms in
  let per_episode x = x /. float_of_int eps in
  let samples = Sampler.total () in
  let share layer =
    per (Option.value ~default:0 (List.assoc_opt layer (Sampler.samples ()))) samples
  in
  let lat f = Spans.durations f spans in
  let bind = lat Spans.bind and inv = lat Spans.invoke and cmt = lat Spans.commit in
  let mean_of name =
    let sum, n =
      List.fold_left
        (fun (s, n) o ->
          let s', n' = List.assoc name o.means in
          (s +. s', n + n'))
        (0.0, 0) os
    in
    if n = 0 then 0.0 else sum /. float_of_int n
  in
  let catchups = Array.of_list (List.concat_map (fun o -> o.catchups) os) in
  let incomplete = List.fold_left (fun n o -> n + o.catchup_incomplete) 0 os in
  let violations, attempted, failed = outcome_summary os in
  let count name v = metric name "count" (float_of_int v) in
  let layer_metrics =
    List.concat_map
      (fun (layer, n) ->
        [
          metric (layer ^ ".wall_share") "ratio" (share layer);
          count (layer ^ ".wall_samples") n;
        ])
      (Sampler.samples ())
  in
  {
    correct = violations = [];
    attempted;
    failed;
    violations;
    metrics =
      [
        metric "trace.overhead" "ratio" (Stats.median !pairs)
          ~note:"untraced / traced wall_commits_per_s, median of pairs";
        count "trace.episodes" eps;
        (* The fastest untraced episode: the machine's speed drifts by up
           to a third over minutes, and drift only ever slows a run. *)
        metric "run.wall_commits_per_s" "1/s"
          (List.fold_left Float.max 0.0 !plain_rates);
        metric "run.wall_commits_per_s_median" "1/s"
          (Stats.median !plain_rates);
        count "trace.actions" acts;
        metric "sim.events_per_action" "events"
          (per (List.fold_left (fun n o -> n + o.events) 0 os) acts);
        metric "net.rpc_calls_per_action" "calls" (per_action "rpc.calls");
        metric "net.retries_per_action" "retries" (per_action "retry.retries");
        metric "net.unreachable_per_action" "calls"
          (per_action "rpc.unreachable");
        metric "lockmgr.waits_per_action" "waits" (per_action "lock.waited");
        metric "lockmgr.timeouts_per_action" "timeouts"
          (per_action "lock.timeout");
        metric "action.failed_frac" "ratio" (per (acts - cms) acts);
        metric "action.phase2_deferred" "count/episode"
          (per_episode (float_of_int (counter os "action.release_deferred")));
        metric "store.prepare_rpcs_per_commit" "rpcs"
          (per
             (counter os "rpc.op.store.prepare"
             + counter os "rpc.op.store.prepare_batch")
             cms);
        metric "store.phase2_rpcs_per_commit" "rpcs"
          (per
             (counter os "rpc.op.store.commit"
             + counter os "rpc.op.store.commit_batch"
             + counter os "rpc.op.store.abort"
             + counter os "rpc.op.store.abort_batch")
             cms);
        metric "replica.invoke_p50" "tu" (pct inv 50.0);
        metric "replica.invoke_p99" "tu" (pct inv 99.0);
        count "replica.invoke_samples" (Array.length inv);
        metric "replica.activations_per_action" "activations"
          (per_action "server.activations");
        metric "replica.commit_p50" "tu" (pct cmt 50.0);
        metric "replica.commit_p99" "tu" (pct cmt 99.0);
        count "replica.commit_samples" (Array.length cmt);
        metric "replica.batch_members_mean" "members"
          (mean_of "groupcommit.batch_members");
        metric "replica.peels_per_commit" "peels"
          (per_commit "groupcommit.peels");
        metric "replica.validate_conflicts_per_commit" "conflicts"
          (per_commit "commit.validate_conflict");
        metric "replica.bytes_per_commit" "bytes"
          (per_commit "commit.bytes_shipped");
        metric "naming.bind_p50" "tu" (pct bind 50.0);
        metric "naming.bind_p99" "tu" (pct bind 99.0);
        count "naming.bind_samples" (Array.length bind);
        metric "naming.rounds_per_bind" "rounds"
          (mean_of "bind.naming_rounds");
        metric "naming.gvd_rpcs_per_action" "rpcs"
          (per (counter_prefix os "rpc.op.gvd.") acts);
        metric "naming.view_lock_waits" "count/episode"
          (per_episode (float_of_int (counter os "gvd.view_lock_waits")));
        metric "naming.exclusions" "count/episode"
          (per_episode (float_of_int (counter os "gvd.exclusions")));
        metric "naming.includes" "count/episode"
          (per_episode (float_of_int (counter os "gvd.includes")));
        metric "naming.catchup_p50" "tu" (pct catchups 50.0);
        count "naming.catchup_samples" (Array.length catchups);
        count "naming.catchup_incomplete" incomplete;
        metric "gc.minor_collections_per_commit" "collections"
          (per !minor cms);
        metric "gc.major_collections" "count/episode"
          (per_episode (float_of_int !major));
        metric "gc.wall_share" "ratio" (Gcread.busy_s () /. sampled_s);
        count "gc.lost_events" !Gcread.lost;
      ]
      @ layer_metrics;
  }
