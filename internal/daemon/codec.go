// The command/reply codec: the payload of every "cmd" and "reply"
// envelope. Fields are uvarint-length strings (transport.AppendField),
// written in a fixed order and closed by one flag byte:
//
//	Command: ID | Cmd | Group | Object | Data | Op | Domain |
//	         uvarint len(Signers) | Signers... | flags
//	         (flag 0x01 Delegated, 0x02 Signers non-nil)
//	Reply:   ID | Detail | Data | flags
//	         (flag 0x01 OK)
//
// Strings travel verbatim, so a signed request in Command.Data costs its
// own bytes and nothing more. Decoding is strict: a truncated input, a
// length or count that runs past the end, a non-minimal uvarint, an
// unknown flag bit or a trailing byte is an error, so each value has
// exactly one encoding.

package daemon

import (
	"encoding/binary"
	"errors"
	"fmt"

	"jointadmin/internal/transport"
)

// Codec flag bits.
const (
	flagDelegated    = 1 << 0 // Command.Delegated
	flagSigners      = 1 << 1 // Command.Signers != nil
	flagOK           = 1 << 0 // Reply.OK
	commandFlagsMask = flagDelegated | flagSigners
	replyFlagsMask   = flagOK
)

// errTrailing reports bytes after a complete value.
var errTrailing = errors.New("trailing bytes")

// EncodeCommand encodes cmd as one command payload.
func EncodeCommand(cmd Command) []byte {
	strs := [...]string{cmd.ID, cmd.Cmd, cmd.Group, cmd.Object, cmd.Data, cmd.Op, cmd.Domain}
	size := binary.MaxVarintLen64 + 1 // signer count and flags
	for _, s := range strs {
		size += transport.FieldSize(len(s))
	}
	for _, s := range cmd.Signers {
		size += transport.FieldSize(len(s))
	}
	b := make([]byte, 0, size)
	for _, s := range strs {
		b = transport.AppendField(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(cmd.Signers)))
	for _, s := range cmd.Signers {
		b = transport.AppendField(b, s)
	}
	var flags byte
	if cmd.Delegated {
		flags |= flagDelegated
	}
	if cmd.Signers != nil {
		flags |= flagSigners
	}
	return append(b, flags)
}

// DecodeCommand decodes one command payload (see EncodeCommand).
func DecodeCommand(b []byte) (Command, error) {
	d := decoder{b: b}
	cmd := Command{
		ID:     d.str(),
		Cmd:    d.str(),
		Group:  d.str(),
		Object: d.str(),
		Data:   d.str(),
		Op:     d.str(),
		Domain: d.str(),
	}
	if n := d.uvarint(); n > 0 {
		// Each signer takes at least one byte, which bounds the
		// allocation by the input.
		if n > uint64(len(d.b)) {
			d.fail(transport.ErrMalformed)
		} else {
			cmd.Signers = make([]string, n)
			for i := range cmd.Signers {
				cmd.Signers[i] = d.str()
			}
		}
	}
	flags := d.flags(commandFlagsMask)
	cmd.Delegated = flags&flagDelegated != 0
	switch {
	case flags&flagSigners != 0 && cmd.Signers == nil:
		cmd.Signers = []string{}
	case flags&flagSigners == 0 && cmd.Signers != nil:
		d.fail(errors.New("signers without their flag"))
	}
	if err := d.end(); err != nil {
		return Command{}, fmt.Errorf("daemon: decode command: %w", err)
	}
	return cmd, nil
}

// EncodeReply encodes r as one reply payload.
func EncodeReply(r Reply) []byte {
	size := transport.FieldSize(len(r.ID)) + transport.FieldSize(len(r.Detail)) + transport.FieldSize(len(r.Data)) + 1
	b := make([]byte, 0, size)
	b = transport.AppendField(b, r.ID)
	b = transport.AppendField(b, r.Detail)
	b = transport.AppendField(b, r.Data)
	var flags byte
	if r.OK {
		flags |= flagOK
	}
	return append(b, flags)
}

// DecodeReply decodes one reply payload (see EncodeReply).
func DecodeReply(b []byte) (Reply, error) {
	d := decoder{b: b}
	r := Reply{ID: d.str(), Detail: d.str(), Data: d.str()}
	r.OK = d.flags(replyFlagsMask)&flagOK != 0
	if err := d.end(); err != nil {
		return Reply{}, fmt.Errorf("daemon: decode reply: %w", err)
	}
	return r, nil
}

// decoder walks one payload, keeping the first error; after an error
// every read returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) str() string {
	if d.err != nil {
		return ""
	}
	f, rest, err := transport.ReadField(d.b)
	if err != nil {
		d.fail(err)
		return ""
	}
	d.b = rest
	return string(f)
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, rest, err := transport.ReadUvarint(d.b)
	if err != nil {
		d.fail(err)
		return 0
	}
	d.b = rest
	return v
}

// flags reads the closing flag byte, rejecting bits outside mask.
func (d *decoder) flags(mask byte) byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail(transport.ErrMalformed)
		return 0
	}
	f := d.b[0]
	d.b = d.b[1:]
	if f&^mask != 0 {
		d.fail(fmt.Errorf("unknown flag bits %#x", f&^mask))
	}
	return f
}

// end reports the first error, or errTrailing if bytes remain.
func (d *decoder) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = errTrailing
	}
	return d.err
}
