(* Wall-clock layer sampler.

   A SIGPROF interval timer interrupts the process while it runs; each
   tick takes the OCaml call stack and credits the innermost frame whose
   source file lies under [lib/<layer>/]. Frames of the standard library
   and of the benchmark itself are skipped, so their time counts toward
   the library layer that called them. A stack with no frame in these
   layers is credited to [other]. *)

let layers =
  [| "sim"; "net"; "lockmgr"; "action"; "store"; "replica"; "naming" |]

let other = Array.length layers
let counts = Array.make (other + 1) 0
let depth = 256

let layer_of_file file =
  match String.split_on_char '/' file with
  | "lib" :: dir :: _ :: _ ->
      let rec find k =
        if k = other then None
        else if String.equal layers.(k) dir then Some k
        else find (k + 1)
      in
      find 0
  | _ -> None

let classify stack =
  match Printexc.backtrace_slots stack with
  | None -> other
  | Some slots ->
      let n = Array.length slots in
      let rec walk k =
        if k = n then other
        else
          match Printexc.Slot.location slots.(k) with
          | Some loc -> (
              match layer_of_file loc.Printexc.filename with
              | Some l -> l
              | None -> walk (k + 1))
          | None -> walk (k + 1)
      in
      walk 0

let tick _ =
  let l = classify (Printexc.get_callstack depth) in
  counts.(l) <- counts.(l) + 1

let reset () = Array.fill counts 0 (Array.length counts) 0
let total () = Array.fold_left ( + ) 0 counts

(* Kernels commonly deliver the profiling signal at 100–1000 Hz whatever
   the requested interval; 1 ms asks for the fastest it will give. *)
let interval = 0.001

let start () =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle tick);
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

let stop () =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

(* [(layer, samples)] for every layer and [other]. *)
let samples () =
  Array.to_list (Array.mapi (fun k c -> ((if k = other then "other" else layers.(k)), c)) counts)
