(* Seeded input generator shared by every workload.

   The benchmark owns its randomness: one [Sim.Rng] built from the seed
   argument is split once per client, and each client draws its requests
   from its own child stream, so a client's sequence of requests does not
   depend on how the simulation interleaves clients. *)

module Zipf = struct
  (* Inverse-CDF sampler over ranks [0, n): rank [k] has weight
     [1 / (k + 1) ^ s]. [s = 0.0] is the uniform distribution. *)
  type t = { cdf : float array }

  let create ~n ~s =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
      cdf.(k) <- !acc
    done;
    let total = !acc in
    Array.iteri (fun k c -> cdf.(k) <- c /. total) cdf;
    { cdf }

  let probability t k =
    if k = 0 then t.cdf.(0) else t.cdf.(k) -. t.cdf.(k - 1)

  (* The smallest rank whose cumulative probability exceeds [u]. *)
  let sample t rng =
    let u = Sim.Rng.float rng 1.0 in
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
end

type mix = {
  popularity : Zipf.t;  (** object popularity; rank [k] is object [k] *)
  write_share : float;  (** probability that a request writes *)
  think_mean : float;  (** mean of the exponential think time, in tu *)
  keys : int;  (** keys per kvmap object, for kvmap requests *)
}

type request = {
  obj : int;  (** object index *)
  write : bool;
  scheme : Naming.Scheme.t;
  key : int;  (** key of a kvmap request; unused for counters *)
  think : float;  (** simulated time the client sleeps after it *)
}

let schemes = Array.of_list Naming.Scheme.all

(* One request from a client's stream. The draw order is fixed: object,
   op, scheme, key, think time. *)
let next mix rng =
  let obj = Zipf.sample mix.popularity rng in
  let write = Sim.Rng.bool rng mix.write_share in
  let scheme = schemes.(Sim.Rng.int rng (Array.length schemes)) in
  let key = Sim.Rng.int rng mix.keys in
  let think = Sim.Rng.exponential rng mix.think_mean in
  { obj; write; scheme; key; think }

(* Per-client request streams from the seed argument: child [i] of the
   root generator drives client [i]. *)
let client_streams ~seed ~clients =
  let root = Sim.Rng.create seed in
  Array.init clients (fun _ -> Sim.Rng.split root)
