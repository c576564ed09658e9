package relation

// AttachStorage wires a test Storage behind db, for the external tests
// of this package.
func AttachStorage(db *DB, s Storage) { db.attachStorage(s) }
