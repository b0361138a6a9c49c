package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"csi/internal/media"
	"csi/internal/packet"
)

// Compact binary serialization for runs. A 10-minute session captures
// hundreds of thousands of packets; JSON runs to tens of megabytes, while
// this varint-packed format stays a few megabytes and loads an order of
// magnitude faster. The format is versioned and self-contained:
//
//	magic "CSIRUN" | version u8 | sections (SNI, DNS, IPs, packets,
//	truth, display, stalls), each length-prefixed.
//
// The per-packet record (AppendPacketRecord / DecodePacketRecord) is the
// repository's one packet codec: the daemon's frame stream and its WAL
// carry the same bytes.
const (
	binMagic   = "CSIRUN"
	binVersion = 1

	// maxStrBytes bounds one decoded string (a corrupt length must not
	// allocate gigabytes).
	maxStrBytes = 1 << 20
	// minPacketRecord is the smallest encoded packet record: flags, time
	// and eight integer fields of one byte each.
	minPacketRecord = 10
)

// Packet record flag bits.
const (
	flagDown    = 1
	flagUDP     = 2
	flagQUICLng = 4
	flagStrings = 8 // rare string fields present
	knownFlags  = flagDown | flagUDP | flagQUICLng | flagStrings
)

func appendF64(b []byte, v float64) []byte { return binary.AppendUvarint(b, math.Float64bits(v)) }

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendPacketRecord appends v's packet record (the CSIRUN v1 per-packet
// encoding) to dst.
func AppendPacketRecord(dst []byte, v *packet.View) []byte {
	flags := uint64(0)
	if v.Dir == packet.Down {
		flags |= flagDown
	}
	if v.Proto == packet.UDP {
		flags |= flagUDP
	}
	if v.QUICLong {
		flags |= flagQUICLng
	}
	if v.SNI != "" || v.DNSQuery != "" || v.DNSAnswerIP != "" || v.ServerIP != "" {
		flags |= flagStrings
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = appendF64(dst, v.Time)
	dst = binary.AppendVarint(dst, int64(v.ConnID))
	dst = binary.AppendVarint(dst, v.Size)
	dst = binary.AppendVarint(dst, v.TCPSeq)
	dst = binary.AppendVarint(dst, v.TCPPayload)
	dst = binary.AppendVarint(dst, v.TLSAppBytes)
	dst = binary.AppendVarint(dst, v.TLSHSBytes)
	dst = binary.AppendVarint(dst, v.QUICPN)
	dst = binary.AppendVarint(dst, v.QUICPayload)
	if flags&flagStrings != 0 {
		dst = appendStr(dst, v.SNI)
		dst = appendStr(dst, v.DNSQuery)
		dst = appendStr(dst, v.DNSAnswerIP)
		dst = appendStr(dst, v.ServerIP)
	}
	return dst
}

// DecodePacketRecord parses one packet record from the front of b into v
// and returns the bytes it consumed. A record cut short by the end of b
// fails with io.ErrUnexpectedEOF.
func DecodePacketRecord(b []byte, v *packet.View) (int, error) {
	d := binDecoder{b: b}
	d.packet(v)
	return len(b) - len(d.b), d.err
}

var errVarint = errors.New("malformed varint")

// binDecoder reads the format's primitives from the front of a byte
// slice. The first error is sticky: every later read returns zero.
type binDecoder struct {
	b   []byte
	err error
}

func (d *binDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *binDecoder) varintErr(n int) {
	if n == 0 {
		d.fail(io.ErrUnexpectedEOF)
	} else {
		d.fail(errVarint)
	}
}

func (d *binDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.varintErr(n)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binDecoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.varintErr(n)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binDecoder) f64() float64 { return math.Float64frombits(d.uvarint()) }

func (d *binDecoder) str() string {
	n := d.uvarint()
	switch {
	case d.err != nil:
		return ""
	case n > maxStrBytes:
		d.fail(fmt.Errorf("implausible string length %d", n))
		return ""
	case n > uint64(len(d.b)):
		d.fail(io.ErrUnexpectedEOF)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads a section's element count. Every element takes at least
// minBytes, so a count the remaining bytes cannot hold is corruption, and
// never sizes an allocation.
func (d *binDecoder) count(minBytes int) uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/minBytes) {
		d.fail(fmt.Errorf("implausible count %d", n))
		return 0
	}
	return n
}

func (d *binDecoder) packet(v *packet.View) {
	*v = packet.View{}
	flags := d.uvarint()
	if flags&^knownFlags != 0 {
		d.fail(fmt.Errorf("unknown packet flags %#x", flags))
		return
	}
	if flags&flagDown != 0 {
		v.Dir = packet.Down
	}
	if flags&flagUDP != 0 {
		v.Proto = packet.UDP
	}
	v.QUICLong = flags&flagQUICLng != 0
	v.Time = d.f64()
	v.ConnID = int(d.varint())
	v.Size = d.varint()
	v.TCPSeq = d.varint()
	v.TCPPayload = d.varint()
	v.TLSAppBytes = d.varint()
	v.TLSHSBytes = d.varint()
	v.QUICPN = d.varint()
	v.QUICPayload = d.varint()
	if flags&flagStrings != 0 {
		v.SNI = d.str()
		v.DNSQuery = d.str()
		v.DNSAnswerIP = d.str()
		v.ServerIP = d.str()
	}
}

// WriteBinary serializes the run in the compact binary format.
func (r *Run) WriteBinary(w io.Writer) error {
	const chunk = 64 << 10
	b := make([]byte, 0, 2*chunk)
	var err error
	flush := func() {
		if err == nil && len(b) > 0 {
			_, err = w.Write(b)
		}
		b = b[:0]
	}
	b = append(b, binMagic...)
	b = binary.AppendUvarint(b, binVersion)

	t := r.Trace
	b = binary.AppendUvarint(b, uint64(len(t.SNI)))
	for id, host := range t.SNI {
		b = appendStr(binary.AppendVarint(b, int64(id)), host)
	}
	b = binary.AppendUvarint(b, uint64(len(t.DNS)))
	for ip, host := range t.DNS {
		b = appendStr(appendStr(b, ip), host)
	}
	b = binary.AppendUvarint(b, uint64(len(t.ServerIP)))
	for id, ip := range t.ServerIP {
		b = appendStr(binary.AppendVarint(b, int64(id)), ip)
	}

	b = binary.AppendUvarint(b, uint64(len(t.Packets)))
	for i := range t.Packets {
		b = AppendPacketRecord(b, &t.Packets[i])
		if len(b) >= chunk {
			flush()
		}
	}

	b = binary.AppendUvarint(b, uint64(len(r.Truth)))
	for _, tr := range r.Truth {
		b = appendF64(appendF64(b, tr.ReqTime), tr.DoneTime)
		b = binary.AppendVarint(binary.AppendVarint(b, int64(tr.Ref.Track)), int64(tr.Ref.Index))
		b = binary.AppendVarint(binary.AppendUvarint(b, uint64(tr.Kind)), tr.Size)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Display)))
	for _, d := range r.Display {
		b = appendF64(appendF64(b, d.Start), d.End)
		b = binary.AppendVarint(binary.AppendVarint(b, int64(d.Index)), int64(d.Track))
	}
	b = binary.AppendUvarint(b, uint64(len(r.Stalls)))
	for _, s := range r.Stalls {
		b = appendF64(appendF64(b, s.Start), s.End)
	}
	flush()
	if err != nil {
		return fmt.Errorf("capture: writing binary run: %w", err)
	}
	return nil
}

// ReadBinary parses a run from the compact binary format.
func ReadBinary(rd io.Reader) (*Run, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("capture: reading binary run: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(binMagic)) {
		return nil, fmt.Errorf("capture: not a binary run file")
	}
	d := &binDecoder{b: data[len(binMagic):]}
	if ver := d.uvarint(); d.err != nil {
		return nil, fmt.Errorf("capture: reading binary version: %w", d.err)
	} else if ver != binVersion {
		return nil, fmt.Errorf("capture: unsupported binary version %d", ver)
	}

	run := &Run{Trace: NewTrace()}
	t := run.Trace
	fail := func(section string) (*Run, error) {
		return nil, fmt.Errorf("capture: binary section %s: %w", section, d.err)
	}

	for n := d.count(2); n > 0 && d.err == nil; n-- {
		id := d.varint()
		t.SNI[int(id)] = d.str()
	}
	if d.err != nil {
		return fail("sni")
	}
	for n := d.count(2); n > 0 && d.err == nil; n-- {
		ip := d.str()
		t.DNS[ip] = d.str()
	}
	if d.err != nil {
		return fail("dns")
	}
	for n := d.count(2); n > 0 && d.err == nil; n-- {
		id := d.varint()
		t.ServerIP[int(id)] = d.str()
	}
	if d.err != nil {
		return fail("ips")
	}

	n := d.count(minPacketRecord)
	// Grow from a bounded capacity rather than trusting the declared count.
	t.Packets = make([]packet.View, 0, min(n, 1<<16))
	for ; n > 0; n-- {
		var v packet.View
		if d.packet(&v); d.err != nil {
			return fail("packets")
		}
		t.Packets = append(t.Packets, v)
	}

	for n := d.count(6); n > 0 && d.err == nil; n-- {
		var tr TruthRecord
		tr.ReqTime, tr.DoneTime = d.f64(), d.f64()
		tr.Ref.Track, tr.Ref.Index = int(d.varint()), int(d.varint())
		tr.Kind = media.Type(d.uvarint())
		tr.Size = d.varint()
		run.Truth = append(run.Truth, tr)
	}
	if d.err != nil {
		return fail("truth")
	}
	for n := d.count(4); n > 0 && d.err == nil; n-- {
		var dr DisplayRecord
		dr.Start, dr.End = d.f64(), d.f64()
		dr.Index, dr.Track = int(d.varint()), int(d.varint())
		run.Display = append(run.Display, dr)
	}
	if d.err != nil {
		return fail("display")
	}
	for n := d.count(2); n > 0 && d.err == nil; n-- {
		run.Stalls = append(run.Stalls, StallRecord{Start: d.f64(), End: d.f64()})
	}
	if d.err != nil {
		return fail("stalls")
	}
	return run, nil
}

// SaveBinary writes the run to the named file in binary format.
func (r *Run) SaveBinary(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("capture: saving binary run: %w", err)
	}
	defer f.Close()
	if err := r.WriteBinary(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadBinary reads a run from the named binary file.
func LoadBinary(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("capture: loading binary run: %w", err)
	}
	defer f.Close()
	return ReadBinary(f)
}

// LoadAny opens a run file in either format, sniffing the magic bytes.
func LoadAny(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("capture: loading run: %w", err)
	}
	defer f.Close()
	head := make([]byte, len(binMagic))
	if _, err := io.ReadFull(f, head); err != nil {
		return nil, fmt.Errorf("capture: reading run header: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if string(head) == binMagic {
		return ReadBinary(f)
	}
	return ReadJSON(f)
}
