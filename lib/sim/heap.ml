(* Three parallel arrays: keys unboxed in a [Float.Array], insertion
   sequence numbers, and values. Entries sift through a hole, so each level
   moves one entry instead of swapping two. *)
type 'a t = {
  mutable keys : Float.Array.t;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next : int; (* sequence number of the next push *)
}

let create () =
  { keys = Float.Array.create 0; seqs = [||]; vals = [||]; size = 0; next = 0 }

let length h = h.size

let is_empty h = h.size = 0

let grow h x =
  let capacity = Array.length h.vals in
  if h.size = capacity then begin
    let capacity' = if capacity = 0 then 16 else capacity * 2 in
    let keys = Float.Array.make capacity' 0.0 in
    Float.Array.blit h.keys 0 keys 0 h.size;
    let seqs = Array.make capacity' 0 in
    Array.blit h.seqs 0 seqs 0 h.size;
    let vals = Array.make capacity' x in
    Array.blit h.vals 0 vals 0 h.size;
    h.keys <- keys;
    h.seqs <- seqs;
    h.vals <- vals
  end

let[@inline] place h i k s x =
  Float.Array.unsafe_set h.keys i k;
  Array.unsafe_set h.seqs i s;
  Array.unsafe_set h.vals i x

let[@inline] move h ~src ~dst =
  place h dst
    (Float.Array.unsafe_get h.keys src)
    (Array.unsafe_get h.seqs src)
    (Array.unsafe_get h.vals src)

(* Whether slot [i] orders before the entry (k, s). *)
let[@inline] before h i k s =
  let ki = Float.Array.unsafe_get h.keys i in
  ki < k || (ki = k && Array.unsafe_get h.seqs i < s)

(* The new entry carries the largest sequence number yet, so it rises past
   a parent only on a strictly smaller key. *)
let push h k x =
  grow h x;
  let s = h.next in
  h.next <- s + 1;
  let i = ref h.size in
  h.size <- h.size + 1;
  while
    !i > 0 && k < Float.Array.unsafe_get h.keys ((!i - 1) / 2)
  do
    let parent = (!i - 1) / 2 in
    move h ~src:parent ~dst:!i;
    i := parent
  done;
  place h !i k s x

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty heap";
  Float.Array.unsafe_get h.keys 0

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  let top = Array.unsafe_get h.vals 0 in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root's hole. *)
    let k = Float.Array.unsafe_get h.keys n in
    let s = Array.unsafe_get h.seqs n in
    let x = Array.unsafe_get h.vals n in
    let i = ref 0 in
    let settled = ref false in
    while not !settled do
      let left = (2 * !i) + 1 in
      if left >= n then settled := true
      else begin
        let right = left + 1 in
        let child =
          if
            right < n
            && before h right
                 (Float.Array.unsafe_get h.keys left)
                 (Array.unsafe_get h.seqs left)
          then right
          else left
        in
        if before h child k s then begin
          move h ~src:child ~dst:!i;
          i := child
        end
        else settled := true
      end
    done;
    place h !i k s x
  end;
  top

let clear h =
  h.keys <- Float.Array.create 0;
  h.seqs <- [||];
  h.vals <- [||];
  h.size <- 0
