module Region = Scm.Region

type t = {
  region : Region.t;
  off : int;
  rows : int;
}

let header_bytes = 64 (* region-level bump pointer at offset 0 *)

let init_region region =
  Region.write_int64 region 0 (Int64.of_int header_bytes);
  Region.persist region 0 8

let carve region ~rows =
  let bump = Int64.to_int (Region.read_int64 region 0) in
  let bytes = Scm.Cacheline.align_up (rows * 8) 64 in
  if bump + bytes > Region.size region then failwith "Column.carve: region full";
  Region.write_int64 region 0 (Int64.of_int (bump + bytes));
  Region.persist region 0 8;
  { region; off = bump; rows }

let get t i =
  if i < 0 || i >= t.rows then invalid_arg "Column.get";
  Region.read_word t.region (t.off + (i * 8))

let set t i v =
  if i < 0 || i >= t.rows then invalid_arg "Column.set";
  Region.write_word t.region (t.off + (i * 8)) v

(** Bulk sanity scan (recovery): fold over all rows. *)
let fold t f acc =
  let acc = ref acc in
  for i = 0 to t.rows - 1 do
    acc := f !acc (get t i)
  done;
  !acc
