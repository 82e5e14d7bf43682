module Value = Prairie_value.Value
module String_map = Map.Make (String)
module String_set = Set.Make (String)

(* Descriptors are hash-consed: every distinct binding map is represented by
   at most one live record per domain, carrying a precomputed
   order-independent hash, a pool-unique id, and a lazily cached canonical
   fingerprint.  [equal]/[hash] therefore cost O(1) on the memo hot paths
   (the pointer-equality fast path covers every same-domain comparison)
   instead of re-serializing the map per probe.

   The pool is generation-scoped and domain-local.  Generation-scoped: a
   strong hash table capped at [pool_capacity] entries that is reset
   wholesale when full, rather than a weak set — weak arrays make every
   intern pay GC bookkeeping (sweeping shows up prominently in optimizer
   profiles), while a bounded strong table costs one probe.  Resetting a
   generation never invalidates live descriptors: the pool is purely a
   dedup cache, and [equal] falls back to structural comparison for the
   (rare) pairs interned in different generations.  Domain-local: the plan
   service optimizes on several domains at once, and a shared pool would
   need a lock on every construction; descriptors that cross domains hit
   the same structural fallback. *)

type t = {
  id : int;
      (** unique within the interning domain's pool; [-1] on a draft (see
          {!update}) *)
  hash : int;  (** order-independent combination of binding hashes *)
  map : Value.t String_map.t;
  mutable fp : string option;  (** cached canonical serialization *)
}

(* XOR-combined per-binding hashes: order-independent, so [set]/[remove]
   update it incrementally without refolding the map.

   [hash_param] with a deep meaningful-node budget: the default budget (10)
   stops inside long attribute lists, making every join descriptor's "attrs"
   binding hash alike and defeating the hash pre-checks below.  The deeper
   walk is paid once per binding change, not per comparison.

   Equal values hash equal even at the float edge cases: [caml_hash]
   normalizes -0. to 0. and all NaNs to one payload, exactly the
   identifications [Float.equal]-based value equality makes.  That makes a
   hash mismatch a sound proof of inequality. *)
let binding_hash p v = Hashtbl.hash_param 128 256 (p, v)

let empty_hash = 0x6b84c5

let map_hash m =
  String_map.fold (fun p v h -> h lxor binding_hash p v) m empty_hash

module Pool = Hashtbl.Make (struct
  type nonrec t = t

  (* The cached-hash pre-check settles bucket mismatches with one int
     compare; without it every probe walks two binding maps (and their
     attribute lists) until the first difference, which dominated optimizer
     profiles.  Sound because equal maps hash equal (see [binding_hash]). *)
  let equal a b =
    a == b || (a.hash = b.hash && String_map.equal Value.equal a.map b.map)

  let hash (d : t) = d.hash
end)

type pool_stats = { size : int; hits : int; misses : int }

type pool = {
  set : t Pool.t;
  mutable next_id : int;
  mutable hits : int;
  mutable misses : int;
}

(* Generation cap: large enough that a single optimization run never rolls
   over (the biggest bench workloads intern a few tens of thousands of
   distinct descriptors), small enough to bound a long-lived service
   domain's memory. *)
let pool_capacity = 1 lsl 17

let pool_key =
  Domain.DLS.new_key (fun () ->
      { set = Pool.create 1024; next_id = 0; hits = 0; misses = 0 })

let intern ?hash map =
  let h = match hash with Some h -> h | None -> map_hash map in
  let pool = Domain.DLS.get pool_key in
  let candidate = { id = pool.next_id; hash = h; map; fp = None } in
  match Pool.find_opt pool.set candidate with
  | Some r ->
    pool.hits <- pool.hits + 1;
    r
  | None ->
    if Pool.length pool.set >= pool_capacity then Pool.reset pool.set;
    Pool.add pool.set candidate candidate;
    pool.next_id <- pool.next_id + 1;
    pool.misses <- pool.misses + 1;
    candidate

let pool_stats () =
  let p = Domain.DLS.get pool_key in
  { size = Pool.length p.set; hits = p.hits; misses = p.misses }

let id d = d.id

(* Drafts: descriptors built by [update] and not yet looked up in the pool.
   A rule action writes several properties of one output descriptor; it
   builds the map as a draft and interns the result once, with [seal],
   instead of paying a pool probe (and, on a hit, a structural map
   comparison) per property write.  Every other constructor returns a
   sealed descriptor. *)
let draft_id = -1
let draft hash map = { id = draft_id; hash; map; fp = None }
let seal d = if d.id = draft_id then intern ~hash:d.hash d.map else d
let empty = intern String_map.empty
let is_empty d = String_map.is_empty d.map

let get d p =
  match String_map.find_opt p d.map with Some v -> v | None -> Value.Null

let find d p =
  match String_map.find_opt p d.map with
  | Some Value.Null | None -> None
  | Some v -> Some v

(* "No constraint" values are normalized to absence so that descriptors
   reached along different rewriting paths compare equal: an unset
   [tuple_order] reads back as DONT_CARE and an unset predicate as [True]
   (see the typed accessors), so the representations are interchangeable. *)
let is_no_constraint = function
  | Value.Null | Value.Order Prairie_value.Order.Any
  | Value.Pred Prairie_value.Predicate.True ->
    true
  | _ -> false

let remove_draft d p =
  match String_map.find_opt p d.map with
  | None -> d
  | Some old ->
    draft (d.hash lxor binding_hash p old) (String_map.remove p d.map)

let update d p v =
  if is_no_constraint v then remove_draft d p
  else
    match String_map.find_opt p d.map with
    | Some old ->
      draft
        (d.hash lxor binding_hash p old lxor binding_hash p v)
        (String_map.add p v d.map)
    | None -> draft (d.hash lxor binding_hash p v) (String_map.add p v d.map)

let set d p v = seal (update d p v)
let remove d p = seal (remove_draft d p)

let mem d p = match find d p with Some _ -> true | None -> false

let of_list bindings =
  intern
    (List.fold_left
       (fun m (p, v) ->
         if is_no_constraint v then String_map.remove p m
         else String_map.add p v m)
       String_map.empty bindings)

let to_list d = String_map.bindings d.map

let merge ~base ~overrides =
  if String_map.is_empty overrides.map then seal base
  else if String_map.is_empty base.map then seal overrides
  else intern (String_map.union (fun _ _ v -> Some v) base.map overrides.map)

(* [String_map.filter] preserves physical identity when nothing is dropped,
   so the common "already restricted" case returns [d] without touching the
   pool. *)
let restrict_set d props =
  let m = String_map.filter (fun p _ -> String_set.mem p props) d.map in
  if m == d.map then seal d else intern m

let without_set d props =
  let m = String_map.filter (fun p _ -> not (String_set.mem p props)) d.map in
  if m == d.map then seal d else intern m

let restrict d props = restrict_set d (String_set.of_list props)
let without d props = without_set d (String_set.of_list props)

let equal a b =
  a == b || (a.hash = b.hash && String_map.equal Value.equal a.map b.map)

let compare a b = if a == b then 0 else String_map.compare Value.compare a.map b.map
let hash d = d.hash

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal a b =
    a == b || (a.hash = b.hash && String_map.equal Value.equal a.map b.map)

  let hash (d : t) = d.hash
end)

(* Injective serialization for fingerprinting.  Strings are length-prefixed
   so concatenation cannot introduce collisions; floats are rendered as hex
   ("%h") so distinct bit patterns stay distinct where "%g" would round. *)
let add_map_fingerprint buf m =
  let tagged c s =
    Buffer.add_char buf c;
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let rec add_value = function
    | Value.Null -> Buffer.add_char buf 'N'
    | Value.Bool b -> Buffer.add_char buf (if b then 'T' else 'F')
    | Value.Int i ->
      Buffer.add_char buf 'I';
      Buffer.add_string buf (string_of_int i)
    | Value.Float f ->
      Buffer.add_char buf 'D';
      Buffer.add_string buf (Printf.sprintf "%h" f)
    | Value.Str s -> tagged 'S' s
    | Value.Order o -> tagged 'O' (Prairie_value.Order.to_string o)
    | Value.Pred p -> tagged 'P' (Prairie_value.Predicate.to_string p)
    | Value.Attrs attrs ->
      tagged 'A'
        (String.concat "\x01" (List.map Prairie_value.Attribute.to_string attrs))
    | Value.List vs ->
      Buffer.add_char buf 'L';
      Buffer.add_string buf (string_of_int (List.length vs));
      Buffer.add_char buf ':';
      List.iter add_value vs
  in
  Buffer.add_char buf '{';
  String_map.iter
    (fun p v ->
      tagged 'k' p;
      Buffer.add_char buf '=';
      add_value v;
      Buffer.add_char buf ';')
    m;
  Buffer.add_char buf '}'

let fingerprint d =
  match d.fp with
  | Some s -> s
  | None ->
    let buf = Buffer.create 64 in
    add_map_fingerprint buf d.map;
    let s = Buffer.contents buf in
    (* A benign race when two domains fingerprint a shared descriptor:
       both compute the same string and the one-word write is atomic. *)
    d.fp <- Some s;
    s

let add_fingerprint buf d = Buffer.add_string buf (fingerprint d)
let get_int d p = Value.to_int (get d p)
let get_float d p = Value.to_float (get d p)
let get_order d p = Value.to_order (get d p)
let get_pred d p = Value.to_pred (get d p)
let get_attrs d p = Value.to_attrs (get d p)

let cost d = match find d "cost" with Some v -> Value.to_float v | None -> 0.0
let set_cost d c = set d "cost" (Value.Float c)

let pp ppf d =
  Format.fprintf ppf "@[<hv 1>{";
  List.iteri
    (fun i (p, v) ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%s = %a" p Value.pp v)
    (to_list d);
  Format.fprintf ppf "}@]"
