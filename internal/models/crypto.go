package models

import (
	"symnet/internal/core"
	"symnet/internal/sefl"
)

// Encryption modeling (§7): the paper captures exactly two properties —
// (1) after encryption, no box can read the original payload (it sees an
// unbounded fresh symbolic value), and (2) decryption with the matching key
// restores the original contents. The ciphertext itself is irrelevant.

// encrypt returns code encrypting the TCP payload under the given key: a
// "Key" metadata entry records the key, and a fresh allocation of
// TcpPayload masks the original value with a new symbol.
func encrypt(key uint64) sefl.Instr {
	return sefl.Seq(
		sefl.Allocate{LV: sefl.Meta{Name: "Key"}, Size: 64},
		sefl.Assign{LV: sefl.Meta{Name: "Key"}, E: sefl.CW(key, 64)},
		sefl.Allocate{LV: sefl.TcpPayload, Size: 64},
		sefl.Assign{LV: sefl.TcpPayload, E: sefl.Symbolic{W: 64, Name: "ciphertext"}},
	)
}

// decrypt returns code decrypting the TCP payload: the path proceeds only
// when the recorded key matches, and deallocating the ciphertext layer
// unmasks the original payload.
func decrypt(key uint64) sefl.Instr {
	return sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.Meta{Name: "Key"}}, sefl.CW(key, 64))},
		sefl.Deallocate{LV: sefl.TcpPayload, Size: 64},
		sefl.Deallocate{LV: sefl.Meta{Name: "Key"}, Size: 64},
	)
}

// EncryptTunnel installs a 1-in/1-out encrypting gateway.
func EncryptTunnel(e *core.Element, key uint64) {
	e.SetInCode(core.WildcardPort, sefl.Seq(encrypt(key), sefl.Forward{Port: 0}))
}

// DecryptTunnel installs the matching decrypting gateway.
func DecryptTunnel(e *core.Element, key uint64) {
	e.SetInCode(core.WildcardPort, sefl.Seq(decrypt(key), sefl.Forward{Port: 0}))
}
