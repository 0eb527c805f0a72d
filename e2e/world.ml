(* The common world, the four workloads and one episode of a workload.

   An episode builds a fresh world, lets its closed-loop clients issue
   requests until a fixed simulated horizon, drains the engine, and checks
   the outcome. Everything it does is a function of its seed, so its
   simulated-time figures, counts and allocation repeat exactly. *)

open Naming

type workload = {
  name : string;
  objects : int;
  kv_every : int;  (** every [kv_every]-th object is a kvmap; 0 = none *)
  clients : int;
  zipf_s : float;  (** popularity exponent; 0.0 = uniform *)
  write_share : float;
  churn : bool;  (** the store/server crash schedule *)
  horizon : float;  (** simulated time during which clients issue requests *)
}

let workloads =
  [
    {
      name = "zipf-10k";
      objects = 10_000;
      kv_every = 10;
      clients = 200;
      zipf_s = 0.99;
      write_share = 0.30;
      churn = false;
      horizon = 200.0;
    };
    {
      name = "hot-200";
      objects = 200;
      kv_every = 0;
      clients = 64;
      zipf_s = 0.99;
      write_share = 0.90;
      churn = false;
      horizon = 1500.0;
    };
    {
      name = "read-mostly";
      objects = 2_000;
      kv_every = 0;
      clients = 16;
      zipf_s = 0.0;
      write_share = 0.05;
      churn = false;
      horizon = 3000.0;
    };
    {
      name = "store-churn";
      objects = 1_000;
      kv_every = 0;
      clients = 32;
      zipf_s = 0.99;
      write_share = 0.30;
      churn = true;
      horizon = 2400.0;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

(* Topology: four naming shards, four servers, three stores. *)
let naming_node = "ns"
let extra_naming = [ "ns1"; "ns2"; "ns3" ]
let servers = [ "s1"; "s2"; "s3"; "s4" ]
let stores = [| "t1"; "t2"; "t3" |]
let think_mean = 2.0
let kv_keys = 40
let policy = Replica.Policy.Single_copy_passive

(* Object [i]'s St: two of the three stores, round-robin. *)
let home_st i = [ stores.(i mod 3); stores.((i + 1) mod 3) ]
let is_kv wl i = wl.kv_every > 0 && i mod wl.kv_every = wl.kv_every - 1

let kv_preload =
  String.concat ";"
    (List.init kv_keys (fun k -> Printf.sprintf "key%02d=%032d" k k))

(* Crash schedule of [store-churn]: one store down for [down] tu every
   [period] tu, and one server down for [down] tu, offset by half a
   period. Every window closes before the horizon. *)
let period = 120.0
let down = 25.0
let first_crash = 20.0

let crash_windows wl ~start =
  if not wl.churn then []
  else
    let n_servers = List.length servers in
    let rec go k acc =
      let at = start +. first_crash +. (float_of_int k *. period) in
      let server_at = at +. (period /. 2.0) in
      if server_at +. down > start +. wl.horizon then List.rev acc
      else
        go (k + 1)
          ((List.nth servers (k mod n_servers), server_at)
          :: (stores.(k mod 3), at) :: acc)
    in
    go 0 []

(* One committed or failed [with_bound] call, in simulated time: entry,
   body entry, invoke return, return. *)
type span = {
  sp_action : int;
  sp_client : int;
  sp_start : float;
  sp_body : float;
  sp_invoked : float;
  sp_end : float;
  sp_ok : bool;
}

type outcome = {
  setup_s : float;  (** wall time to build, seed and settle the world *)
  run_s : float;  (** wall time of the client phase and its drain *)
  requests : int;  (** client requests *)
  failed_requests : int;  (** requests that never committed *)
  actions : int;  (** [with_bound] calls, retries included *)
  commits : int;
  latencies : float array;  (** tu of each committed [with_bound] call *)
  window_commits : int;  (** commits returned while clients still issue *)
  events : int;  (** engine events of the client phase *)
  minor_words : float;  (** words allocated by the client phase *)
  counters : (string * int) list;  (** library counters of the client phase *)
  means : (string * (float * int)) list;
      (** sum and count of the client-phase samples of each [sampled] *)
  catchups : float list;  (** tu from a store's recovery to its full St *)
  catchup_incomplete : int;  (** recoveries whose catch-up never ended *)
  spans : span array;  (** empty unless traced *)
  violations : string list;  (** outcome-check failures *)
}

(* Library distributions an episode keeps the client-phase samples of. *)
let sampled = [ "groupcommit.batch_members"; "bind.naming_rounds" ]

let max_attempts = 20
let catchup_poll = 1.0

let counter_delta before after =
  List.filter_map
    (fun (k, v) ->
      let b = Option.value ~default:0 (List.assoc_opt k before) in
      if v - b <> 0 then Some (k, v - b) else None)
    after

(* Seeds of episode [i] of a run: the world seed and the request-stream
   seed, both derived from the seed argument. *)
let episode_seeds ~seed ~index =
  let root = Sim.Rng.create (Int64.of_int seed) in
  let r = ref (Sim.Rng.split root) in
  for _ = 1 to index do
    r := Sim.Rng.split root
  done;
  (Sim.Rng.int64 !r, Sim.Rng.int64 !r)

let build wl ~world_seed =
  let client_nodes = List.init wl.clients (fun i -> Printf.sprintf "c%d" i) in
  let w =
    Service.create ~seed:world_seed
      {
        Service.gvd_node = naming_node;
        gvd_nodes = extra_naming;
        server_nodes = servers;
        store_nodes = Array.to_list stores;
        client_nodes;
      }
  in
  (* The debug trace keeps one string per protocol step for the whole
     run; the benchmark measures the protocol, not that log. *)
  Sim.Trace.set_enabled (Service.trace w) false;
  let uids =
    Array.init wl.objects (fun i ->
        let name = Printf.sprintf "o%d" i in
        if is_kv wl i then
          Service.create_object w ~name ~impl:"kvmap" ~initial:kv_preload
            ~sv:servers ~st:(home_st i) ()
        else
          Service.create_object w ~name ~impl:"counter" ~sv:servers
            ~st:(home_st i) ())
  in
  Service.run ~until:1.0 w;
  (w, uids)

let committed_value w node uid =
  match
    Store.Object_store.read
      (Action.Store_host.objects (Service.store_host w) node)
      uid
  with
  | None -> None
  | Some s -> int_of_string_opt s.Store.Object_state.payload

(* The outcome check: St mutual consistency on every object, exactly-once
   on every counter (acknowledged incrs <= value on each St store <=
   attempted incrs), no leaked fibers, and for crash workloads the full
   post-chaos audit. *)
let check wl w uids ~acked ~tried =
  let bad = ref [] in
  let add fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  Array.iteri
    (fun i uid ->
      (match Workload.Audit.mutual_consistency w uid with
      | Ok () -> ()
      | Error why -> add "o%d: %s" i why);
      if not (is_kv wl i) then
        List.iter
          (fun node ->
            match committed_value w node uid with
            | None -> add "o%d: store %s holds no counter" i node
            | Some v ->
                if v < acked.(i) || v > tried.(i) then
                  add "o%d: store %s holds %d, outside [%d acked, %d tried]" i
                    node v acked.(i) tried.(i))
          (Router.current_st (Service.router w) uid))
    uids;
  (match Sim.Engine.leaked_fibers (Service.engine w) with
  | [] -> ()
  | fibers -> add "leaked fibers: %s" (String.concat ", " fibers));
  if wl.churn then List.iter (add "%s") (Workload.Audit.chaos w);
  List.rev !bad

let op_string wl i (r : Gen.request) ~seq =
  if is_kv wl i then
    if r.write then Printf.sprintf "put key%02d %032d" r.key seq
    else Printf.sprintf "get key%02d" r.key
  else if r.write then "incr"
  else "get"

(* A reply the object could not have given means a wrong output. *)
let reply_ok wl i (r : Gen.request) reply =
  if is_kv wl i then if r.write then reply = "ok" else reply <> "(none)"
  else
    match int_of_string_opt reply with
    | Some v -> if r.write then v >= 1 else v >= 0
    | None -> false

(* Drive the engine to quiescence in slices, calling [between] after each
   slice (the traced run polls the GC event ring there). *)
let drain ?(between = ignore) eng =
  let slice = 50_000 in
  let rec go () =
    let before = Sim.Engine.processed_events eng in
    Sim.Engine.run ~max_steps:slice eng;
    between ();
    if Sim.Engine.processed_events eng - before >= slice then go ()
  in
  go ()

(* [wrap] runs around the client phase alone (the traced run starts its
   samplers there); [between] runs between engine slices. *)
let run_episode ?(traced = false) ?(wrap = fun f -> f ()) ?(between = ignore)
    wl ~seed ~index =
  let world_seed, stream_seed = episode_seeds ~seed ~index in
  let t0 = Unix.gettimeofday () in
  let w, uids = build wl ~world_seed in
  let setup_s = Unix.gettimeofday () -. t0 in
  let eng = Service.engine w in
  let net = Service.network w in
  let m = Service.metrics w in
  let start = Sim.Engine.now eng in
  let mix =
    {
      Gen.popularity = Gen.Zipf.create ~n:wl.objects ~s:wl.zipf_s;
      write_share = wl.write_share;
      think_mean;
      keys = kv_keys;
    }
  in
  let streams =
    Gen.client_streams ~seed:stream_seed ~clients:wl.clients
  in
  let acked = Array.make wl.objects 0 and tried = Array.make wl.objects 0 in
  let requests = ref 0 and failed_requests = ref 0 in
  let actions = ref 0 and commits = ref 0 in
  let latencies = ref [] and window_commits = ref 0 in
  let spans = ref [] and bad_replies = ref [] in
  (* Crash schedule, and a poller per store recovery that waits until
     every object homed on the store lists it in St again. It gives up
     when the store next crashes or the clients stop, whichever is
     first: an Include that starves under load counts as incomplete. *)
  let catchups = ref [] and catchup_incomplete = ref 0 in
  List.iter
    (fun (node, at) ->
      Net.Fault.crash_for net ~at ~duration:down node;
      if Array.mem node stores then begin
        let homed =
          List.filter
            (fun i -> List.mem node (home_st i))
            (List.init wl.objects Fun.id)
        in
        let recovered = at +. down in
        let give_up =
          Float.min (start +. wl.horizon)
            (at +. (float_of_int (Array.length stores) *. period))
        in
        Sim.Engine.schedule eng ~delay:(recovered -. start) (fun () ->
            Sim.Engine.spawn eng ~name:"e2e-catchup" (fun () ->
                let rec poll () =
                  let now = Sim.Engine.now eng in
                  if
                    List.for_all
                      (fun i ->
                        List.mem node
                          (Router.current_st (Service.router w) uids.(i)))
                      homed
                  then catchups := (now -. recovered) :: !catchups
                  else if now >= give_up then incr catchup_incomplete
                  else begin
                    Sim.Engine.sleep eng catchup_poll;
                    poll ()
                  end
                in
                poll ()))
      end)
    (crash_windows wl ~start);
  let seq = ref 0 in
  Array.iteri
    (fun c rng ->
      let client = Printf.sprintf "c%d" c in
      Service.spawn_client w client (fun () ->
          while Sim.Engine.now eng < start +. wl.horizon do
            let r = Gen.next mix rng in
            let i = r.obj in
            incr requests;
            let rec attempt n =
              incr actions;
              incr seq;
              let id = !seq in
              let op = op_string wl i r ~seq:id in
              if r.write && not (is_kv wl i) then tried.(i) <- tried.(i) + 1;
              let t_start = Sim.Engine.now eng in
              let t_body = ref nan and t_inv = ref nan in
              let res =
                Service.with_bound w ~client ~scheme:r.scheme ~policy
                  ~uid:uids.(i) (fun act group ->
                    if traced then t_body := Sim.Engine.now eng;
                    let reply = Service.invoke w group ~act ~write:r.write op in
                    if traced then t_inv := Sim.Engine.now eng;
                    reply)
              in
              let t_end = Sim.Engine.now eng in
              if traced then
                spans :=
                  {
                    sp_action = id;
                    sp_client = c;
                    sp_start = t_start;
                    sp_body = !t_body;
                    sp_invoked = !t_inv;
                    sp_end = t_end;
                    sp_ok = Result.is_ok res;
                  }
                  :: !spans;
              match res with
              | Ok reply ->
                  incr commits;
                  if r.write && not (is_kv wl i) then acked.(i) <- acked.(i) + 1;
                  if not (reply_ok wl i r reply) then
                    bad_replies :=
                      Printf.sprintf "o%d: %S answered %S" i op reply
                      :: !bad_replies;
                  latencies := (t_end -. t_start) :: !latencies;
                  if t_end <= start +. wl.horizon then incr window_commits
              | Error _ ->
                  if n < max_attempts then begin
                    Sim.Engine.sleep eng r.think;
                    attempt (n + 1)
                  end
                  else incr failed_requests
            in
            attempt 1;
            Sim.Engine.sleep eng r.think
          done))
    streams;
  let counters_before = Sim.Metrics.counters m in
  let dists_before = List.map (Sim.Metrics.sample_count m) sampled in
  let events_before = Sim.Engine.processed_events eng in
  let words_before = Gc.minor_words () in
  let t1 = Unix.gettimeofday () in
  wrap (fun () -> drain ~between eng);
  let run_s = Unix.gettimeofday () -. t1 in
  let minor_words = Gc.minor_words () -. words_before in
  let events = Sim.Engine.processed_events eng - events_before in
  let means =
    List.map2
      (fun name before ->
        let xs =
          List.filteri (fun k _ -> k >= before) (Sim.Metrics.samples m name)
        in
        (name, (List.fold_left ( +. ) 0.0 xs, List.length xs)))
      sampled dists_before
  in
  let violations =
    List.rev !bad_replies @ check wl w uids ~acked ~tried
  in
  {
    setup_s;
    run_s;
    requests = !requests;
    failed_requests = !failed_requests;
    actions = !actions;
    commits = !commits;
    latencies = Array.of_list (List.rev !latencies);
    window_commits = !window_commits;
    events;
    minor_words;
    counters = counter_delta counters_before (Sim.Metrics.counters m);
    means;
    catchups = List.rev !catchups;
    catchup_incomplete = !catchup_incomplete;
    spans = Array.of_list (List.rev !spans);
    violations;
  }
