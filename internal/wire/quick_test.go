package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickConfig bounds generated values to the codec's documented limits.
var quickConfig = &quick.Config{
	MaxCount: 200,
	Values: func(values []reflect.Value, r *rand.Rand) {
		for i := range values {
			values[i] = reflect.ValueOf(randomEnvelope(r))
		}
	},
}

func randomName(r *rand.Rand) string {
	n := r.Intn(MaxNameLen)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return string(b)
}

func randomEnvelope(r *rand.Rand) Envelope {
	payload := make([]byte, r.Intn(2048))
	r.Read(payload)
	return Envelope{
		Type:     Type(r.Intn(255) + 1),
		Sender:   randomName(r),
		Receiver: randomName(r),
		Payload:  payload,
	}
}

// TestEnvelopeRoundTripProperty: Decode(encode(e)) == e for arbitrary
// envelopes within limits.
func TestEnvelopeRoundTripProperty(t *testing.T) {
	f := func(e Envelope) bool {
		data, err := encode(e)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return got.Type == e.Type && got.Sender == e.Sender &&
			got.Receiver == e.Receiver && bytes.Equal(got.Payload, e.Payload)
	}
	if err := quick.Check(f, quickConfig); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanicsOnGarbage throws random byte soup at the decoder.
func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		data := make([]byte, r.Intn(256))
		r.Read(data)
		// Half the samples get a valid magic/version prefix so parsing
		// goes deeper.
		if i%2 == 0 && len(data) >= 2 {
			data[0] = magic
			data[1] = version
		}
		_, _ = Decode(data) // must not panic
	}
}

// TestPayloadDecodersNeverPanicOnGarbage fuzzes every payload decoder.
func TestPayloadDecodersNeverPanicOnGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	decoders := []func([]byte){
		func(b []byte) { _, _ = UnmarshalAuthInit(b) },
		func(b []byte) { _, _ = UnmarshalAuthKeyDist(b) },
		func(b []byte) { _, _ = UnmarshalAck(b) },
		func(b []byte) { _, _ = UnmarshalAdminMsg(b) },
		func(b []byte) { _, _ = UnmarshalClose(b) },
		func(b []byte) { _, _ = UnmarshalAppData(b) },
		func(b []byte) { _, _ = UnmarshalAdminBody(b) },
	}
	for i := 0; i < 2000; i++ {
		data := make([]byte, r.Intn(300))
		r.Read(data)
		for _, dec := range decoders {
			dec(data)
		}
	}
}

// TestAuthInitPayloadProperty round-trips random AuthInit payloads.
func TestAuthInitPayloadProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		in := AuthInitPayload{User: randomName(r), Leader: randomName(r)}
		data, n1 := opened(in.Marshal())
		out, err := UnmarshalAuthInit(data)
		if err != nil {
			t.Fatalf("round trip failed for %+v: %v", in, err)
		}
		if out.User != in.User || out.Leader != in.Leader || !out.N1.Equal(n1) {
			t.Fatalf("mismatch: %+v vs %+v", out, in)
		}
	}
}

// TestAppDataPayloadProperty round-trips random app payloads.
func TestAppDataPayloadProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		data := make([]byte, r.Intn(4096))
		r.Read(data)
		in := AppDataPayload{Sender: randomName(r), Epoch: r.Uint64(), Data: data}
		out, err := UnmarshalAppData(in.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if out.Sender != in.Sender || out.Epoch != in.Epoch || !bytes.Equal(out.Data, in.Data) {
			t.Fatal("app data mismatch")
		}
	}
}

// TestEncodingUnambiguousProperty: two different envelopes never share an
// encoding.
func TestEncodingUnambiguousProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	seen := make(map[string]Envelope)
	for i := 0; i < 2000; i++ {
		e := randomEnvelope(r)
		data, err := encode(e)
		if err != nil {
			continue
		}
		key := string(data)
		if prev, dup := seen[key]; dup {
			if prev.Type != e.Type || prev.Sender != e.Sender ||
				prev.Receiver != e.Receiver || !bytes.Equal(prev.Payload, e.Payload) {
				t.Fatalf("encoding collision: %v vs %v", prev, e)
			}
		}
		seen[key] = e
	}
}
